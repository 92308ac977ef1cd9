(** Provenance of chase-produced facts: one record per trigger
    application that added facts, shared by every fact it added.  The
    homomorphism, parents and invented nulls are read off its slots.  The
    termination certificates of [Chase_termination] are found by walking
    these records. *)

type t = {
  rule : Trigger.rule;
  vals : Chase_logic.Term.t array;
      (** every slot of [rule]: the body's values, then the invented nulls *)
  depth : int;  (** 1 + max depth of parents; database facts have depth 0 *)
  step : int;  (** sequence number of the trigger application *)
}

val rule : t -> Chase_logic.Tgd.t

val hom : t -> Chase_logic.Subst.t
(** The full body homomorphism. *)

val parents : t -> Chase_logic.Atom.t list
(** The image of the body. *)

val guard_parent : t -> Chase_logic.Atom.t option
(** The image of the guard atom, when the rule is guarded. *)

val created_nulls : t -> int list
(** The stamps of the nulls invented. *)

val depth : t -> int
val step : t -> int

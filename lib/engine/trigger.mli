(** Slot-compiled rules and triggers, the engine's hot-path representation
    (DESIGN.md §3.1).  Body variables occupy slots [0 .. n_body-1] in name
    order, existentials the slots after them; a trigger is a rule index
    plus its body-slot values, hashed once, and its depth.  Every homomorphism of one body
    binds exactly the body variables, so ordering triggers by {!compare} is
    ordering their homomorphisms by [Subst.compare], and semi-oblivious
    {!key}s are equal exactly when the frontier-restricted homomorphisms
    are. *)

open Chase_logic

type rule = private {
  index : int;  (** position in the run's rule array *)
  tgd : Tgd.t;
  vars : string array;  (** body variables, then existentials *)
  n_body : int;
  frontier : int array;  (** slots of the frontier variables, ascending *)
  body : Template.t array;
  head : Template.t array;
  guard : int option;  (** position of [Classify.guard_of] in the body *)
}

val compile : int -> Tgd.t -> rule

type t = private {
  rule : int;
  vals : Term.t array;
  hash : int;
  depth : int;
      (** 1 + the maximum depth of the facts the body matched, fixed when
          the trigger is found *)
}

val make : rule -> Term.t array -> depth:int -> t
(** [make c vals ~depth]: the trigger of rule [c] with body-slot values
    [vals] (kept, not copied). *)

val key : Variant.t -> rule -> t -> t
(** The dedup key: [t] itself, or its frontier projection (semi-oblivious).
    Depth takes no part in keys, {!equal} or {!compare}. *)

val compare : t -> t -> int
(** Lexicographic [Term.compare] over the slot values (one rule only). *)

val equal : t -> t -> bool

module Tbl : Hashtbl.S with type key = t

val to_subst : rule -> Term.t array -> Subst.t
(** The body variables' substitution, from a trigger's or an {!extend}ed
    slot array. *)

val frontier_subst : rule -> t -> Subst.t

val extend : rule -> t -> fresh:(unit -> int) -> Term.t array
(** All slot values: the trigger's, then one [fresh ()] null per
    existential in slot order. *)

val nulls : rule -> Term.t array -> int list
(** The stamps in the existential slots of an {!extend}ed slot array. *)

val frontier_slots : rule -> t -> Term.t array
(** A slot array over all of the rule's variables with the frontier
    slots bound to the trigger's values and every other slot
    {!Chase_logic.Hom.unbound}: the restricted chase's head check. *)

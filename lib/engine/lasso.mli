(** Lasso certificates: a checkable proof that the (semi-)oblivious chase
    of crit(Σ) never stops (DESIGN.md §3.13).

    A lasso has three parts:
    - R ([records]): derivation records, each a rule index and all its
      slot values, forming a derivation from crit(Σ) — the ancestry;
    - S ([lasso]): the lasso's triggers, a subset of R;
    - h ([shift]): a finite term map that shifts every trigger of S onto
      a later trigger of the chase.

    {!check} reads Σ and crit(Σ)'s constants only: no run state, no
    decider.  It accepts iff
    + R is a valid derivation: each body fact of a record is a fact of
      crit(Σ) or a head fact of an earlier record, existential slots hold
      distinct nulls new in R, and no two records share a variant key;
    + h is defined on every body term of S and fixes every constant;
    + for every t ∈ S and body fact b of t, h(b) = b or h(b) is a head
      fact of some t′ ∈ S;
    + if a null created by t′ ∈ S occurs in a body of S, then S contains
      the trigger with the variant key of (rule(t′), h∘σ_t′), and h maps
      t′'s nulls slot by slot onto that trigger's nulls;
    + the graph on S with an edge t → t′ whenever a frontier slot of t
      holds an x such that h(x) is a null created by t′ has a cycle;
    + the variant is not restricted.

    Then, for every k, (rule(t), h^k∘σ_t) is a trigger of the fair chase
    for each t ∈ S, and along the cycle each shifted key holds a null
    the previous one created, so infinitely many keys are applied.

    The finder ({!watch}, {!observe}) is an [on_trigger] hook on the
    chase of crit(Σ): it proposes one-rule lassos S = {p}, h = σ_p ↦ σ_t,
    whenever a trigger t re-fires p's rule on a fact p created, and keeps
    the first candidate {!check} accepts. *)

open Chase_logic

type record = {
  rule : int;  (** index into the rule list *)
  vals : Term.t array;
      (** every slot of the rule ({!Trigger.compile} order): the body
          variables' values, then the invented nulls *)
}

type t = {
  records : record array;  (** R, in application order *)
  lasso : int list;  (** S, as indices into [records] *)
  shift : (Term.t * Term.t) list;  (** h *)
  step : int;
      (** the chase step at which the finder accepted the lasso; the
          checker does not read it *)
}

val check :
  ?standard:bool -> variant:Variant.t -> Tgd.t list -> t -> (unit, string) result
(** Re-check a certificate against Σ alone.  crit(Σ)'s constants are
    {!Critical.constants_for} [~standard] (default true).  [Error] names
    the first of the six checks that fails. *)

val pp : Tgd.t list -> Format.formatter -> t -> unit
(** Each trigger of S, its body facts and their images under h. *)

val body_facts : Tgd.t list -> t -> Atom.t list * Atom.t list
(** The body facts of S, and their images under h. *)

(** {1 The finder} *)

type watch

val watch : ?standard:bool -> variant:Variant.t -> Tgd.t list -> watch
(** A finder for one run of the [variant] chase of crit(Σ) ([standard]
    as for {!check}). *)

val observe :
  watch ->
  step:int ->
  rule_index:int ->
  depth:int ->
  created_nulls:int list ->
  Tgd.t ->
  Subst.t ->
  Atom.t list ->
  unit
(** An [on_trigger] hook: records the application, and, when it applies
    a rule with existential variables to a fact an earlier application
    of the same rule created, proposes that one-rule lasso.  It never
    stops the run itself. *)

val found : watch -> t option
(** The first candidate {!check} accepted. *)

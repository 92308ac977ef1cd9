(** Join plans for body matching: a selectivity-ordered permutation of a
    rule body.

    A plan decides in which order {!Hom} binds the body atoms of a rule
    against an instance.  Atoms are picked greedily by estimated
    candidate count, computed from the O(1) cardinality statistics of
    {!Instance} — exact bucket sizes for constant-bound positions,
    average bucket sizes ([count_of_pred / distinct_at]) for positions
    whose variable is bound by an earlier atom of the plan.  Planning
    never walks a bucket and never enumerates a fact.

    Plans only reorder the enumeration; the substitution {e set} produced
    by a planned search is identical to the naive left-to-right search
    (see the property suite and DESIGN.md: the naive matcher is the
    normative semantics). *)

type t
(** A permutation of the body atoms of one rule, for one instance. *)

(** Always-on planning-effort counters (see {!Hom.Stats} for the matcher
    side): how many plans were built and how many single-atom cost
    estimates they required. *)
module Stats : sig
  type snapshot = { plans : int; estimates : int }

  val snapshot : unit -> snapshot
  val diff : snapshot -> snapshot -> snapshot
end

val of_templates :
  bound:bool array -> ?pin:int -> Instance.t -> Template.t array -> t
(** [of_templates ~bound ?pin ins body] orders the compiled [body] by
    estimated selectivity against [ins].  [bound.(s)] tells whether slot
    [s] is determined before the search starts (its positions count as
    bound from the start).  With [pin], a delta-driven rederivation: the
    atom at index [pin] is matched against the seed fact and therefore
    goes first; the rest are ordered greedily with its slots bound.  The
    empty body yields the empty plan.
    @raise Invalid_argument if [pin] is out of range. *)

val order : t -> int array
(** The permutation: [order.(k)] is the original body index matched at
    step [k]. *)

val atoms : t -> Atom.t list -> Atom.t list
(** Apply the permutation to the body it was made for. *)

val length : t -> int

val is_permutation : t -> int
(** Checked accessor used by the property tests: returns the length if
    [order] is a permutation of [0..n-1], raises otherwise. *)


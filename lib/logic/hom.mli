(** Homomorphism search: matching conjunctions of atoms into instances.

    One backtracking core joins compiled atoms ({!Template.t}) over the
    instance indexes: it binds a [Term.t] slot array in place, undoing
    through a trail, and reports the fact id each body atom matched.  Two
    policies drive it: the {b naive} left-to-right reference (the
    normative semantics), which probes the index at the first determined
    position, and the {b planned} one, which follows a selectivity-ordered
    {!Plan} and probes the smallest index at every step.  Both produce the
    same binding {e set}; the dispatching entry points use {!matcher},
    which is planned unless the naive reference was selected with
    {!set_matcher}.  Every substitution entry point compiles its atoms,
    binds its initial substitution into the slots and converts each
    complete binding back to a substitution.

    All searches extend an optional initial substitution, which is how
    frontier-restricted matching (restricted chase satisfaction,
    semi-oblivious keys) reuses the same machinery. *)

val match_atom : Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** [match_atom sub pattern fact] extends [sub] so that the pattern maps
    onto the fact; [None] if impossible. *)

(** {1 Search-effort accounting}

    Process-wide counters of matcher work, always on (each is a single
    [int ref] increment on its code path; systhreads never switch in the
    middle of one, so concurrent service workers lose no counts).  The
    engine snapshots them around each trigger search to attribute probe
    work to rules; the benchmarks diff them across planned/naive runs. *)
module Stats : sig
  type snapshot = {
    probes : int;  (** index probes at a determined position *)
    full_scans : int;  (** predicate scans with no position bound *)
    candidates : int;  (** candidate facts examined by match loops *)
    matches : int;  (** bindings emitted by the dispatching entry points *)
    planned_probe_cost : int;
        (** sum of chosen bucket sizes in best-index probes *)
    naive_probe_cost : int;
        (** what the same probes would have cost at the first determined
            position — the naive policy's estimate *)
  }

  val snapshot : unit -> snapshot

  val diff : snapshot -> snapshot -> snapshot
  (** [diff before after], componentwise. *)

  val candidates_now : unit -> int
  (** The raw candidates counter — the engine's cheap per-trigger
      delta. *)
end

(** {1 Matcher selection} *)

type matcher =
  | Planned  (** join-planned, delta-driven — the default *)
  | Naive  (** left-to-right reference implementation *)

val matcher : unit -> matcher
(** The active matcher: [Planned] unless {!set_matcher} chose another. *)

val set_matcher : matcher -> unit
(** Process-wide override: the hook through which the differential tests
    and the experiment harness run the naive reference. *)

(** {1 The slot core} *)

val unbound : Term.t
(** The value of a slot that is not bound.  Tests against it are
    physical ([==]). *)

val iter_slots :
  ?seed:int ->
  Instance.t ->
  Template.t array ->
  slots:Term.t array ->
  (int array -> unit) ->
  unit
(** [iter_slots ins body ~slots k] calls [k ids] once for every way of
    binding the {!unbound} slots so that every template maps onto a fact;
    during the call [slots] holds the binding and [ids.(i)] the id of the
    fact body atom [i] matched (both are reused: copy what you keep).
    Slots bound on entry stay as they are; the slots the search binds
    are {!unbound} again when it returns.
    With [seed], a fact id, only bindings that map some body atom onto
    that fact, each once.  Dispatches on {!matcher} and counts each call of [k] as
    a match.  If [k] raises, [slots] is left as it was at the raise. *)

val exists_slots : Instance.t -> Template.t array -> slots:Term.t array -> bool
(** Whether {!iter_slots} would call its continuation at least once. *)

(** {1 Dispatching entry points} *)

val iter : ?init:Subst.t -> Instance.t -> Atom.t list -> (Subst.t -> unit) -> unit
(** Call the continuation on every substitution mapping all atoms into
    the instance. *)

val all : ?init:Subst.t -> Instance.t -> Atom.t list -> Subst.t list
val exists : ?init:Subst.t -> Instance.t -> Atom.t list -> bool

(** {1 The individual matchers}

    Exposed for the differential and property test suites; normal code
    goes through the dispatching entry points above. *)

val iter_naive :
  ?init:Subst.t -> Instance.t -> Atom.t list -> (Subst.t -> unit) -> unit
(** The reference matcher: body atoms left to right, first determined
    position probed.  Its substitution set defines correctness. *)

val iter_seeded_naive :
  ?init:Subst.t -> Instance.t -> Atom.t list -> seed:Atom.t -> (Subst.t -> unit) -> unit
(** Only the substitutions mapping at least one atom onto the fact
    [seed], each once: {!iter_slots} [~seed] over substitutions. *)

val iter_planned :
  ?init:Subst.t ->
  ?plan:Plan.t ->
  Instance.t ->
  Atom.t list ->
  (Subst.t -> unit) ->
  unit
(** The planned matcher; [plan] overrides the planner's ordering (it must
    be a plan for exactly this body). *)

val iter_seeded_planned :
  ?init:Subst.t -> Instance.t -> Atom.t list -> seed:Atom.t -> (Subst.t -> unit) -> unit

(** {1 Instance-level homomorphisms} *)

val instance_hom : Instance.t -> Instance.t -> Term.t Term.Map.t option
(** A homomorphism between instances: identity on constants, nulls map
    anywhere, every fact of the source maps to a fact of the target.
    This is the universal-model test; exponential in the worst case. *)

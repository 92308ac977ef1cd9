(** The chase engine: one fair (FIFO) worklist core driving all three
    variants.

    A {e trigger} is a pair (rule, homomorphism from the body into the
    current instance).  The engine seeds the worklist with every trigger
    on the input database and then, semi-naively, enqueues only triggers
    whose body image uses a newly added fact.  FIFO order makes every run
    a fair chase sequence.  Trigger deduplication follows the variant:
    full homomorphism for the oblivious chase, frontier restriction for
    the semi-oblivious; the restricted chase additionally skips triggers
    whose head is satisfiable at fire time.

    Every run is governed by a {!Limits.t}; a breached limit degrades
    gracefully to the partial instance plus a structured
    {!Limits.Exhaustion.reason}. *)

open Chase_logic

type config = {
  variant : Variant.t;
  limits : Limits.t;  (** resource governance for the run *)
}

val default_config : config
(** Oblivious, with {!Limits.default} (100k triggers, 200k facts). *)

type status =
  | Terminated  (** no unapplied trigger remains: the result is final *)
  | Exhausted of Limits.Exhaustion.reason
      (** a limit was breached; the run is a sound prefix *)

type result = {
  instance : Instance.t;
  status : status;
  variant : Variant.t;
  triggers_applied : int;
  triggers_skipped : int;  (** restricted chase: triggers found satisfied *)
  atoms_created : int;
  nulls_created : int;
  max_depth : int;
  elapsed : float;  (** wall-clock seconds, per the limits' clock *)
  rule_firings : (string * int) list;
      (** per-rule trigger applications, descending *)
  queue_residual : int;  (** triggers left unprocessed at stop *)
  derivations : Derivation.t option array;
      (** the derivation record of each fact, by fact id ([None] for a
          database fact); the facts one application added share one
          record.  Read through {!derivation}. *)
}

val exhausted : result -> bool
val exhaustion : result -> Limits.Exhaustion.reason option

val run :
  ?config:config ->
  ?obs:Chase_obs.Obs.t ->
  ?on_trigger:
    (step:int ->
    rule_index:int ->
    depth:int ->
    created_nulls:int list ->
    Tgd.t ->
    Subst.t ->
    Atom.t list ->
    unit) ->
  ?watchdog:Watchdog.t ->
  Tgd.t list ->
  Atom.t list ->
  result
(** [run rules db] chases the facts [db]; the input list is not mutated.
    When the run terminates, the result instance is a (finite) universal
    model of the database and the rules.  [on_trigger] fires after every
    trigger application with the step number, the rule and its index,
    the derivation depth, the stamps of the nulls the application
    invented, the full body homomorphism and the facts actually added
    (see {!Sequence} and the write-ahead journal of [Chase_persist]); an
    exception it raises ends the run and propagates.  [watchdog]
    receives periodic progress snapshots (see {!Watchdog}).  [obs]
    streams structured telemetry — a [chase] span with per-trigger child
    spans, periodic counter samples, and run-total plus per-rule metrics
    ([chase.rule.firings/nulls/probes/match_s/time_s], labelled by rule
    display name) into its registry; the default {!Chase_obs.Obs.disabled}
    reduces every instrumentation point to a flag test.

    A run is deterministic: the same rules, database and limits give the
    same sequence of [on_trigger] calls, null stamps included, so the
    first [k] steps of any run are the first [k] steps of every run with
    looser limits.  Resuming from a journal relies on this — it runs
    again from step zero and checks each step against the journaled one
    ([Chase_persist.Recovery]); no mid-run state is ever restored.

    Trigger discovery is sequential: the seed sweep and the per-fact
    delta sweep run on the calling thread.  The delta sweep for a new
    fact visits, in ascending index order, exactly the rules whose
    bodies mention the fact's predicate.  No option or environment
    variable changes how triggers are found; only
    {!Chase_logic.Hom.set_matcher} does, the hook through which the
    differential tests run the naive reference. *)

val derivation : result -> Atom.t -> Derivation.t option
(** The derivation record of a fact created by the chase; [None] for a
    database fact and for an atom not in the instance. *)

val depth_of : result -> Atom.t -> int
(** Chase depth of a fact; database facts have depth 0. *)

val is_model : Tgd.t list -> Instance.t -> bool
(** Every body match extends to a head match. *)

val check_provenance : result -> db:Atom.t list -> (unit, string) Stdlib.result
(** Soundness certificate of a (possibly degraded) run: every fact is a
    database fact or carries a derivation record that replays — its
    parents (the body under the recorded slots) are present and
    themselves database facts or derived, its existential slots hold
    distinct nulls that occur in no parent, and the rule head under the
    slots reproduces the fact. *)

val pp_result : Format.formatter -> result -> unit

(** The termination front door: classify the rule set and dispatch to the
    strongest applicable procedure.

    (Semi-)oblivious variants: simple linear → Theorem 1 acyclicity;
    linear → Theorem 2 critical procedure; guarded → Theorem 4 cloud
    types; unguarded → sound sufficient conditions (rich acyclicity for
    o; weak, then joint acyclicity for so) and otherwise the budgeted
    chase simulation, where [Unknown] is a possible, honest answer.
    Restricted variant: {!Restricted.check}. *)

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Chase_engine.Limits.t ->
  ?watchdog:Chase_engine.Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Chase_engine.Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** [budget], [limits], [watchdog] and [obs] flow into the one chase
    the chosen procedure runs: the critical-instance chase of the linear,
    guarded and unguarded procedures ({!Simulation.chase}) or the
    restricted generic-instance probe.  [limits] overrides the
    budget-derived defaults (adding e.g. a wall-clock deadline or a
    cancellation token); [watchdog] streams progress snapshots.  [obs]
    also wraps the chosen procedure in a [decide:<proc>] span, records
    its wall time per procedure ([decide.check_s]), and flows into the
    guarded pump search. *)

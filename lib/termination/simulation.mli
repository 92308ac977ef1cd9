(** The chase-simulation oracle: run the ?-chase on the critical
    instance.  A drained worklist proves all-instance termination for the
    (semi-)oblivious chase (critical-instance theorem); a breached limit
    proves nothing and is reported as [Unknown], with the structured
    exhaustion diagnostics (breach, dominant rule, null-growth rate) in
    the evidence. *)

open Chase_engine

type outcome = {
  verdict : Verdict.t;
  result : Engine.result;
}

val default_budget : int

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Chase_logic.Tgd.t list ->
  outcome
(** [limits] overrides the budget-derived defaults (adding e.g. a
    wall-clock deadline or a cancellation token); [watchdog] streams
    progress snapshots of the simulation run; [obs] flows into the
    simulation's {!Engine.run}. *)

(** The chase of the critical instance: the one crit(Σ) chase on the
    Decide side.  {!Linear}, {!Guarded} and the unguarded fallback
    ([check]) all run [chase], under the caller's budget, limits,
    watchdog and obs.  A drained worklist proves all-instance
    termination for the (semi-)oblivious chase (critical-instance
    theorem); a breached limit proves nothing. *)

open Chase_engine

val default_budget : int
(** 50,000 triggers. *)

val chase :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Chase_logic.Tgd.t list ->
  Engine.result
(** The [variant] chase of crit(Σ) ([standard], default true, adds the
    constants 0 and 1).  [limits] overrides the budget-derived defaults
    ([Limits.of_budget budget]), adding e.g. a wall-clock deadline or a
    cancellation token; [watchdog] streams progress snapshots of the run;
    [obs] flows into its {!Engine.run}. *)

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** The unguarded fallback: [chase], then [Terminates] on a closed run
    and [Unknown], with the structured exhaustion diagnostics (breach,
    dominant rule, null-growth rate) in the evidence, on a breached
    limit. *)

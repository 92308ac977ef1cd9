(** Termination for linear TGDs — Theorem 2: the lasso search of
    {!Chase_acyclicity.Critical_linear.find_pump}, then, when it confirms
    no pump, the chase of the critical instance ({!Simulation.chase}).
    A confirmed pump answers [Diverges] and carries it
    ({!Verdict.Linear_pump}); a closed chase answers [Terminates]; a
    lasso of the chase answers [Diverges] with {!Verdict.Lasso}; a
    search or chase that breaches its limits answers [Unknown], naming
    the breach. *)

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Chase_engine.Limits.t ->
  ?watchdog:Chase_engine.Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Chase_engine.Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** [budget] (default {!Simulation.default_budget}), [limits], [watchdog]
    and [obs] govern the closing chase exactly as in {!Simulation.chase};
    the lasso search before it polls [limits]' cancellation token and
    deadline only.
    @raise Invalid_argument if the set is not linear, or for the
    restricted variant. *)

(** The chase of the critical instance: the one crit(Σ) chase on the
    Decide side.  {!Linear}, {!Guarded} and the unguarded fallback
    ([check]) all run [chase], under the caller's budget, limits,
    watchdog and obs.  A drained worklist proves all-instance
    termination for the (semi-)oblivious chase (critical-instance
    theorem); a lasso that {!Chase_engine.Lasso.check} accepts proves
    divergence; a breached limit proves nothing. *)

open Chase_engine

val default_budget : int
(** 50,000 triggers. *)

(** A run that breached its limits. *)
type exhausted = {
  reason : Limits.Exhaustion.reason;
  facts : int;  (** facts at the stop *)
  max_depth : int;
  partial : Engine.result option;
      (** the run's sound prefix; [None] when crit(Σ) alone exceeds the
          atom cap, so no chase ran *)
}

type outcome =
  | Closed of Engine.result  (** the worklist drained *)
  | Lasso of Lasso.t  (** stopped at the first accepted lasso *)
  | Exhausted of exhausted

val chase :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Chase_logic.Tgd.t list ->
  outcome
(** The [variant] chase of crit(Σ) ([standard], default true, adds the
    constants 0 and 1).  [limits] overrides the budget-derived defaults
    ([Limits.of_budget budget]), adding e.g. a wall-clock deadline or a
    cancellation token; [watchdog] streams progress snapshots of the run;
    [obs] flows into its {!Engine.run}.

    Under o and so, when some rule has an existential variable, a
    {!Lasso} finder watches the run ([on_trigger]) and stops it at the
    first lasso {!Lasso.check} accepts.  A crit(Σ) of at least the atom
    cap's size is not built: the answer is the step-0 breach the engine
    would report. *)

val lasso_evidence : variant:Variant.t -> Chase_logic.Tgd.t list -> Lasso.t -> string
(** The evidence line of a lasso-certified [Diverges] verdict. *)

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** The unguarded fallback: [chase], then [Terminates] on a closed run,
    [Diverges] with the lasso as witness ({!Verdict.Lasso}) on a lasso,
    and [Unknown], with the structured exhaustion diagnostics (breach,
    dominant rule, null-growth rate) in the evidence, on a breached
    limit. *)

(** The restricted chase — §4 / future-work territory.

    No critical-instance reduction exists for the restricted chase, and
    the paper only announces a characterization for single-head linear
    sets.  [check] combines: sound sufficient conditions (weak / joint
    acyclicity), sound refutation (divergence on the concrete generic
    instance), and the single-head linear probe; everything else is
    [Unknown]. *)

open Chase_engine

val default_budget : int

val probe :
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  Chase_logic.Tgd.t list ->
  Chase_logic.Atom.t list ->
  Engine.result
(** A restricted-chase run on an explicit database. *)

val check :
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  Chase_logic.Tgd.t list ->
  Verdict.t
(** [limits] overrides the budget-derived defaults of the generic-instance
    probe; [watchdog] streams its progress snapshots; [obs] flows into
    it. *)

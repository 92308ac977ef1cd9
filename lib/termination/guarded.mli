(** Termination of the (semi-)oblivious chase for guarded TGDs —
    Theorem 4, realized as a certificate search over the guarded chase
    forest of the critical instance (see DESIGN.md §3.3):

    - a closed chase of the critical instance ({!Simulation.chase})
      proves termination on every database (critical-instance theorem);
    - a lasso of that chase that {!Chase_engine.Lasso.check} accepts
      proves divergence;
    - otherwise, a recurring cloud type along one guard chain with fresh nulls at
      every link proves the branch self-similar, i.e. divergence;
    - a run that breached its limits without a pump answers [Unknown]. *)

open Chase_logic
open Chase_engine

val default_budget : int

type pump = {
  occurrences : Atom.t list;  (** same-type facts along one guard chain *)
  chain_length : int;
}

val find_pump : ?obs:Chase_obs.Obs.t -> Engine.result -> pump option
(** Search the derivation forest of a chase run for a recurring-type pump:
    three same-type facts along the guard chain of one of the eight
    deepest facts.  [obs] counts chains
    examined and chain nodes walked ([guarded.pump.chains/nodes]). *)

val check :
  ?standard:bool ->
  ?budget:int ->
  ?limits:Limits.t ->
  ?watchdog:Watchdog.t ->
  ?obs:Chase_obs.Obs.t ->
  variant:Variant.t ->
  Tgd.t list ->
  Verdict.t
(** [budget] (default [default_budget], 20,000), [limits], [watchdog]
    and [obs] govern the critical-instance chase exactly as in
    {!Simulation.chase}; [obs] also flows into the pump search.  A divergence verdict carries its lasso
    ({!Verdict.Lasso}) or its pump ({!Verdict.Guard_chain}).
    @raise Invalid_argument if the set is not guarded. *)

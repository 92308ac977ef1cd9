(** The chase termination library — umbrella module.

    One-stop re-export of the public API.  The sub-libraries group as:

    - logic substrate: {!Term}, {!Atom}, {!Subst}, {!Instance}, {!Hom},
      {!Plan}, {!Template}, {!Tgd}, {!Schema}, {!Pattern}, {!Parser};
    - chase engine: {!Variant}, {!Engine}, {!Trigger},
      {!Limits}, {!Watchdog}, {!Faults}, {!Critical}, {!Derivation},
      {!Lasso};
    - observability: {!Obs}, {!Metrics}, {!Sink}, {!Jsonv}, {!Profile},
      {!Tracectx}, {!Flight}, {!Telemetry};
    - durability: {!Codec}, {!Journal}, {!Snapshot}, {!Recovery},
      {!Session};
    - classes: {!Classify};
    - acyclicity: {!Digraph}, {!Dep_graph}, {!Weak}, {!Rich},
      {!Super_weak}, {!Critical_linear};
    - position dataflow (Σ-flow): {!Flow}, {!Strata};
    - termination procedures: {!Verdict}, {!Sl}, {!Linear}, {!Guarded},
      {!Simulation}, {!Decide};
    - static diagnostics (Σ-lint): {!Diagnostic}, {!Schema_check},
      {!Rule_lint}, {!Graph_lint}, {!Explain}, {!Lint}, {!Analyze},
      {!Json};
    - reductions: {!Looping}, {!Entailment};
    - workloads: {!Families}, {!Random_tgds};
    - service: {!Proto}, {!Driver}, {!Pool}, {!Cache}, {!Admission},
      {!Spool}, {!Server}, {!Client};
    - replication: {!Shipframe}, {!Shipper}, {!Receiver}, {!Standby},
      {!Failover}.

    Quick start:

    {[
      let rules = Chase.Parser.parse_rules_exn "p(X,Y) -> p(Y,Z)." in
      let verdict = Chase.Decide.check ~variant:Chase.Variant.Oblivious rules in
      Fmt.pr "%a@." Chase.Verdict.pp verdict
    ]} *)

(* Logic substrate *)
module Term = Chase_logic.Term
module Atom = Chase_logic.Atom
module Subst = Chase_logic.Subst
module Instance = Chase_logic.Instance
module Hom = Chase_logic.Hom
module Plan = Chase_logic.Plan
module Template = Chase_logic.Template
module Tgd = Chase_logic.Tgd
module Schema = Chase_logic.Schema
module Pattern = Chase_logic.Pattern
module Parser = Chase_logic.Parser
module Query = Chase_logic.Query
module Egd = Chase_logic.Egd
module Core_model = Chase_logic.Core_model

(* Chase engine *)
module Variant = Chase_engine.Variant
module Engine = Chase_engine.Engine
module Trigger = Chase_engine.Trigger
module Limits = Chase_engine.Limits
module Watchdog = Chase_engine.Watchdog
module Faults = Chase_engine.Faults
module Critical = Chase_engine.Critical
module Lasso = Chase_engine.Lasso
module Derivation = Chase_engine.Derivation
module Egd_chase = Chase_engine.Egd_chase
module Sequence = Chase_engine.Sequence

(* Observability: spans, metrics, sinks, the profile table *)
module Obs = Chase_obs.Obs
module Metrics = Chase_obs.Metrics
module Sink = Chase_obs.Sink
module Jsonv = Chase_obs.Jsonv
module Profile = Chase_engine.Profile
module Tracectx = Chase_obs.Tracectx
module Flight = Chase_obs.Flight
module Telemetry = Chase_obs.Telemetry

(* Durability: write-ahead journal, snapshots, crash recovery *)
module Codec = Chase_persist.Codec
module Journal = Chase_persist.Journal
module Snapshot = Chase_persist.Snapshot
module Recovery = Chase_persist.Recovery
module Session = Chase_persist.Session

(* TGD classes *)
module Classify = Chase_classes.Classify

(* Acyclicity notions *)
module Digraph = Chase_acyclicity.Digraph
module Dep_graph = Chase_acyclicity.Dep_graph
module Weak = Chase_acyclicity.Weak
module Rich = Chase_acyclicity.Rich
module Joint = Chase_acyclicity.Joint
module Mfa = Chase_acyclicity.Mfa
module Super_weak = Chase_acyclicity.Super_weak
module Critical_linear = Chase_acyclicity.Critical_linear

(* Position dataflow (Σ-flow) *)
module Flow = Chase_flow.Flow
module Strata = Chase_strata.Strata

(* Termination procedures *)
module Verdict = Chase_termination.Verdict
module Sl = Chase_termination.Sl
module Linear = Chase_termination.Linear
module Guarded = Chase_termination.Guarded
module Restricted = Chase_termination.Restricted
module Simulation = Chase_termination.Simulation
module Decide = Chase_termination.Decide
module Report = Chase_termination.Report

(* Static diagnostics (Σ-lint) *)
(* [Json] is {!Jsonv}: one JSON value type serves diagnostics and metrics. *)
module Json = Chase_obs.Jsonv
module Diagnostic = Chase_analysis.Diagnostic
module Schema_check = Chase_analysis.Schema_check
module Rule_lint = Chase_analysis.Rule_lint
module Graph_lint = Chase_analysis.Graph_lint
module Explain = Chase_analysis.Explain
module Lint = Chase_analysis.Lint
module Analyze = Chase_analysis.Analyze

(* Reductions *)
module Looping = Chase_reductions.Looping
module Entailment = Chase_reductions.Entailment

(* Workloads *)
module Families = Chase_generators.Families
module Random_tgds = Chase_generators.Random_tgds

(* Service: the daemon, its client, and their shared run driver *)
module Proto = Chase_service.Proto
module Driver = Chase_service.Driver
module Pool = Chase_service.Pool
module Cache = Chase_service.Cache
module Admission = Chase_service.Admission
module Spool = Chase_service.Spool
module Server = Chase_service.Server
module Client = Chase_service.Client

(* Replication: primary/standby shipping, promotion, client failover *)
module Shipframe = Chase_replica.Shipframe
module Shipper = Chase_replica.Shipper
module Receiver = Chase_replica.Receiver
module Standby = Chase_replica.Standby
module Failover = Chase_replica.Failover

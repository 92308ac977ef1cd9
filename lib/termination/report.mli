(** The full termination portfolio for a rule set: classification, all
    acyclicity conditions, per-variant verdicts, and critical-instance
    chase statistics — the CLI's [--report] mode and a single entry point
    for downstream tooling. *)

open Chase_logic
open Chase_engine
open Chase_classes

type acyclicity = {
  richly_acyclic : bool;
  weakly_acyclic : bool;
  jointly_acyclic : bool;
  super_weakly_acyclic : bool;  (** Marnette's super-weak acyclicity *)
  stratified : bool;  (** every may-trigger stratum weakly acyclic *)
  mfa : bool option;
      (** MFA on the critical run below; [None] when that run was exhausted
          before a cyclic term appeared *)
}

type chase_stats = {
  status : Engine.status;
  facts : int;
  triggers : int;
  max_depth : int;
  nulls : int;
}

type t = {
  rules : Tgd.t list;
  cls : Classify.cls;
  single_head : bool;
  full : bool;
  acyclicity : acyclicity;
  oblivious : Verdict.t;
  semi_oblivious : Verdict.t;
  restricted : Verdict.t;
  critical_run : chase_stats;
      (** the budgeted semi-oblivious chase of crit(Σ), run once *)
}

val build : ?budget:int -> Tgd.t list -> t
val pp : Format.formatter -> t -> unit

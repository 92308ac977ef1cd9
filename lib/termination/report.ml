(** The full termination portfolio for a rule set, in one structured
    report: classification, every syntactic acyclicity condition, the
    exact per-class verdicts for both chase variants, the restricted
    probe, and chase statistics on the critical instance.  This is what
    the [--report] mode of the CLI prints, and a convenient single entry
    point for downstream tooling. *)

open Chase_logic
open Chase_engine
open Chase_acyclicity
open Chase_classes

type acyclicity = {
  richly_acyclic : bool;
  weakly_acyclic : bool;
  jointly_acyclic : bool;
  super_weakly_acyclic : bool;
  stratified : bool;  (** every may-trigger stratum weakly acyclic *)
  mfa : bool option;
      (** [None] when the critical run was exhausted before a cyclic term *)
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
      (** semi-oblivious chase of crit, budgeted: the run MFA watched *)
}

let stats_of (r : Engine.result) =
  {
    status = r.Engine.status;
    facts = Instance.cardinal r.Engine.instance;
    triggers = r.Engine.triggers_applied;
    max_depth = r.Engine.max_depth;
    nulls = r.Engine.nulls_created;
  }

let build ?(budget = 20_000) rules =
  (* One semi-oblivious chase of crit(Σ) gives both the MFA row and the
     critical-instance line: MFA watches the run for a cyclic term. *)
  let watch = Mfa.watch () in
  let run =
    let crit = Critical.of_rules rules in
    let config =
      { Engine.variant = Variant.Semi_oblivious; limits = Limits.of_budget budget }
    in
    Engine.run ~config ~on_trigger:(Mfa.observe watch) rules (Instance.to_list crit)
  in
  let acyclicity =
    {
      richly_acyclic = Rich.is_richly_acyclic rules;
      weakly_acyclic = Weak.is_weakly_acyclic rules;
      jointly_acyclic = Joint.is_jointly_acyclic rules;
      super_weakly_acyclic = Super_weak.is_super_weakly_acyclic rules;
      stratified = Chase_strata.Strata.is_safe rules;
      mfa =
        (match (Mfa.first_cyclic watch, run.Engine.status) with
        | Some _, _ -> Some false
        | None, Engine.Terminated -> Some true
        | None, Engine.Exhausted _ -> None);
    }
  in
  let critical_run = stats_of run in
  {
    rules;
    cls = Classify.classify rules;
    single_head = Classify.is_single_head rules;
    full = Classify.is_full rules;
    acyclicity;
    oblivious = Decide.check ~budget ~variant:Variant.Oblivious rules;
    semi_oblivious = Decide.check ~budget ~variant:Variant.Semi_oblivious rules;
    restricted = Decide.check ~budget ~variant:Variant.Restricted rules;
    critical_run;
  }

let yesno fm b = Fmt.string fm (if b then "yes" else "no")

let pp fm t =
  Fmt.pf fm "@[<v>";
  Fmt.pf fm "rules: %d   class: %a%s%s@."
    (List.length t.rules) Classify.pp_cls t.cls
    (if t.full then ", full (Datalog)" else "")
    (if t.single_head then ", single-head" else "");
  if t.cls = Classify.Unguarded then
    List.iteri
      (fun idx r ->
        match Classify.unguarded_witness r with
        | [] -> ()
        | vars ->
          Fmt.pf fm "  unguarded %s: no body atom covers %a%a@."
            (match Tgd.name r with
            | "" -> Fmt.str "rule#%d" (idx + 1)
            | n -> n)
            (Util.pp_list ", " Term.pp) vars
            (fun fm -> function
              | None -> ()
              | Some g -> Fmt.pf fm " (best candidate: %a)" Atom.pp g)
            (Classify.best_guard_candidate r))
      t.rules;
  Fmt.pf fm "acyclicity: RA %a   WA %a   JA %a   SWA %a   STR %a   MFA %s@."
    yesno t.acyclicity.richly_acyclic yesno t.acyclicity.weakly_acyclic
    yesno t.acyclicity.jointly_acyclic
    yesno t.acyclicity.super_weakly_acyclic
    yesno t.acyclicity.stratified
    (match t.acyclicity.mfa with
    | Some true -> "yes"
    | Some false -> "no"
    | None -> "unknown");
  Fmt.pf fm "oblivious:      %a@." Verdict.pp t.oblivious;
  Fmt.pf fm "semi-oblivious: %a@." Verdict.pp t.semi_oblivious;
  Fmt.pf fm "restricted:     %a@." Verdict.pp t.restricted;
  Fmt.pf fm
    "critical-instance chase (so, budgeted): %s — %d facts, %d triggers, \
     depth %d, %d nulls"
    (match t.critical_run.status with
    | Engine.Terminated -> "terminated"
    | Engine.Exhausted _ -> "budget exhausted")
    t.critical_run.facts t.critical_run.triggers t.critical_run.max_depth
    t.critical_run.nulls;
  Fmt.pf fm "@]"

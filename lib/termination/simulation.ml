(** The chase of the critical instance — the one crit(Σ) chase behind
    every Decide procedure that chases ({!Linear}, {!Guarded} and the
    unguarded fallback [check]).

    By the critical-instance theorem (DESIGN.md §1) the ?-chase, for
    ? ∈ {oblivious, semi-oblivious}, terminates on every database iff it
    terminates on crit(Σ); so a run that drains its worklist is a {e proof}
    of all-instance termination.  Under those two variants the run is
    watched for a lasso ({!Lasso}, DESIGN.md §3.13) and stops at the first
    one {!Lasso.check} accepts: a proof of divergence.  A run that breaches
    its limits proves nothing by itself — [check] then answers [Unknown],
    carrying the structured exhaustion diagnostics (which limit, the
    dominant rule, the recent null-growth rate) so the caller can tell a
    slow-but-converging run from one diverging so far.

    For the restricted chase the critical-instance reduction is {e not}
    sound in general (a restricted chase may terminate on the critical
    instance yet diverge elsewhere); [check] still accepts
    [Variant.Restricted] for the §4 experiments but labels its positive
    answers as critical-instance-only. *)

open Chase_logic
open Chase_engine

let default_budget = 50_000

type exhausted = {
  reason : Limits.Exhaustion.reason;
  facts : int;
  max_depth : int;
  partial : Engine.result option;
}

type outcome =
  | Closed of Engine.result
  | Lasso of Lasso.t
  | Exhausted of exhausted

exception Stop

(* A crit(Σ) the atom cap already refuses is not built: the breach the
   engine would report at step 0, from the same limit checker. *)
let refused ~standard limits rules =
  match limits.Limits.max_atoms with
  | None -> None
  | Some cap ->
    let facts =
      Critical.size
        ~constants:(Critical.constants_for ~standard rules)
        (Schema.of_rules rules)
    in
    if rules = [] || facts < cap then None
    else
      Limits.Monitor.check (Limits.Monitor.start limits) ~steps:0 ~facts ~nulls:0 ~depth:0
      |> Option.map (fun breach ->
             let reason = Limits.Exhaustion.make ~breach () in
             Exhausted { reason; facts; max_depth = 0; partial = None })

let outcome_of (result : Engine.result) =
  match result.Engine.status with
  | Engine.Terminated -> Closed result
  | Engine.Exhausted reason ->
    Exhausted
      {
        reason;
        facts = Instance.cardinal result.Engine.instance;
        max_depth = result.Engine.max_depth;
        partial = Some result;
      }

(** [chase ?standard ?budget ?limits ?watchdog ?obs ~variant rules] runs
    the [variant] chase of crit(Σ) under [limits], or else
    [Limits.of_budget budget]. *)
let chase ?(standard = true) ?(budget = default_budget) ?limits ?watchdog ?obs
    ~variant rules =
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  match refused ~standard limits rules with
  | Some outcome -> outcome
  | None -> (
    let crit = Instance.to_list (Critical.of_rules ~standard rules) in
    let config = { Engine.variant; limits } in
    let lasso =
      (match (variant : Variant.t) with
      | Oblivious | Semi_oblivious -> true
      | Restricted -> false)
      && not (Chase_classes.Classify.is_full rules)
    in
    if not lasso then outcome_of (Engine.run ~config ?obs ?watchdog rules crit)
    else
      let w = Lasso.watch ~standard ~variant rules in
      let on_trigger ~step ~rule_index ~depth ~created_nulls r sub added =
        Lasso.observe w ~step ~rule_index ~depth ~created_nulls r sub added;
        if Lasso.found w <> None then raise_notrace Stop
      in
      match Engine.run ~config ?obs ?watchdog ~on_trigger rules crit with
      | exception Stop -> Lasso (Option.get (Lasso.found w))
      | result -> outcome_of result)

let lasso_evidence ~variant rules (l : Lasso.t) =
  Fmt.str
    "certified lasso at step %d of the %a chase of the critical instance: %a — \
     every shift is a new trigger, so the chase never stops (certificate: %d \
     derivation records)"
    l.Lasso.step Variant.pp variant (Lasso.pp rules) l
    (Array.length l.Lasso.records)

let check ?standard ?budget ?limits ?watchdog ?obs ~variant rules =
  match chase ?standard ?budget ?limits ?watchdog ?obs ~variant rules with
  | Closed result ->
    let scope =
      match (variant : Variant.t) with
      | Oblivious | Semi_oblivious -> "all databases"
      | Restricted -> "the critical instance (restricted chase: no all-instance guarantee)"
    in
    Verdict.terminates ~procedure:"chase-simulation"
      ~evidence:
        (Fmt.str
           "%a chase of the critical instance closed after %d triggers, %d \
            facts — terminates on %s"
           Variant.pp variant result.Engine.triggers_applied
           (Instance.cardinal result.Engine.instance)
           scope)
  | Lasso l ->
    Verdict.diverges ~witness:(Verdict.Lasso l) ~procedure:"chase-simulation"
      ~evidence:(lasso_evidence ~variant rules l) ()
  | Exhausted e ->
    Verdict.unknown ~procedure:"chase-simulation"
      ~evidence:
        (Fmt.str "%a at %d facts, max depth %d — %s; no conclusion" Limits.pp_breach
           e.reason.Limits.Exhaustion.breach e.facts e.max_depth
           (Limits.Exhaustion.diagnosis e.reason))

(** The chase of the critical instance — the one crit(Σ) chase behind
    every Decide procedure that chases ({!Linear}, {!Guarded} and the
    unguarded fallback [check]).

    By the critical-instance theorem (DESIGN.md §1) the ?-chase, for
    ? ∈ {oblivious, semi-oblivious}, terminates on every database iff it
    terminates on crit(Σ); so a run that drains its worklist is a {e proof}
    of all-instance termination.  A run that breaches its limits proves
    nothing by itself — [check] then answers [Unknown], carrying the
    structured exhaustion diagnostics (which limit, the dominant rule, the
    recent null-growth rate) so the caller can tell a slow-but-converging
    run from one diverging so far.

    For the restricted chase the critical-instance reduction is {e not}
    sound in general (a restricted chase may terminate on the critical
    instance yet diverge elsewhere); [check] still accepts
    [Variant.Restricted] for the §4 experiments but labels its positive
    answers as critical-instance-only. *)

open Chase_logic
open Chase_engine

let default_budget = 50_000

(** [chase ?standard ?budget ?limits ?watchdog ?obs ~variant rules] runs
    the [variant] chase of crit(Σ) under [limits], or else
    [Limits.of_budget budget]. *)
let chase ?(standard = true) ?(budget = default_budget) ?limits ?watchdog ?obs
    ~variant rules =
  let crit = Critical.of_rules ~standard rules in
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  let config = { Engine.variant; limits } in
  Engine.run ~config ?obs ?watchdog rules (Instance.to_list crit)

let check ?standard ?budget ?limits ?watchdog ?obs ~variant rules =
  let result = chase ?standard ?budget ?limits ?watchdog ?obs ~variant rules in
  match result.Engine.status with
  | Engine.Terminated ->
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
  | Engine.Exhausted reason ->
    Verdict.unknown ~procedure:"chase-simulation"
      ~evidence:
        (Fmt.str "%a at %d facts, max depth %d — %s; no conclusion"
           Limits.pp_breach reason.Limits.Exhaustion.breach
           (Instance.cardinal result.Engine.instance)
           result.Engine.max_depth
           (Limits.Exhaustion.diagnosis reason))

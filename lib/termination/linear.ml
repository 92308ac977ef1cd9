(** Termination for linear TGDs — Theorem 2.

    The lasso search of {!Chase_acyclicity.Critical_linear} over the
    pattern-transition system of the critical instance looks for a
    concretely confirmed pump; without one, the chase of the critical
    instance ({!Simulation.chase}, under the caller's limits) settles the
    question: closed is termination on every database, a certified lasso
    is divergence, a breached limit is [Unknown]. *)

open Chase_engine
open Chase_acyclicity

let check ?(standard = true) ?budget ?limits ?watchdog ?obs ~variant rules =
  let procedure, no_lasso, semi =
    match (variant : Variant.t) with
    | Oblivious -> ("critical-rich-acyclicity", "no productive lasso", false)
    | Semi_oblivious ->
      ( "critical-weak-acyclicity",
        "no cycle of frontier-productive transitions",
        true )
    | Restricted ->
      invalid_arg
        "Linear.check: Theorem 2 covers the (semi-)oblivious chase only"
  in
  match Critical_linear.find_pump ~semi ~standard ?limits rules with
  | Error breach ->
    Verdict.unknown ~procedure
      ~evidence:
        (Fmt.str "the lasso search of the pattern-transition system stopped: %a"
           Limits.pp_breach breach)
  | Ok (Some cert) ->
    Verdict.diverges ~witness:(Verdict.Linear_pump cert) ~procedure
      ~evidence:
        (Fmt.str "confirmed pump (%d laps replayed): %a" cert.laps_checked
           (Critical_linear.pp_certificate rules)
           cert)
      ()
  | Ok None -> (
    match Simulation.chase ~standard ?budget ?limits ?watchdog ?obs ~variant rules with
    | Simulation.Closed _ ->
      Verdict.terminates ~procedure
        ~evidence:
          (no_lasso
         ^ " in the pattern-transition system, and the chase of the critical \
            instance closes")
    | Simulation.Lasso l ->
      Verdict.diverges ~witness:(Verdict.Lasso l) ~procedure
        ~evidence:(Simulation.lasso_evidence ~variant rules l) ()
    | Simulation.Exhausted e ->
      Verdict.unknown ~procedure
        ~evidence:
          (Fmt.str
             "no confirmed pump found, but the critical-instance chase did not \
              close within the %a (%d facts, max depth %d — %s)"
             Limits.pp_breach e.reason.Limits.Exhaustion.breach e.facts e.max_depth
             (Limits.Exhaustion.diagnosis e.reason)))

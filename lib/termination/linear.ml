(** Termination for linear TGDs — Theorem 2.

    Delegates to the critical-rich/weak acyclicity procedure of
    {!Chase_acyclicity.Critical_linear}: a pattern-transition analysis of
    the chase of the critical instance, with every non-termination answer
    backed by a concretely confirmed pumping cycle. *)

open Chase_engine
open Chase_acyclicity

let check ?(standard = true) ~variant rules =
  let procedure, no_lasso, outcome =
    match (variant : Variant.t) with
    | Oblivious ->
      ( "critical-rich-acyclicity",
        "no productive lasso",
        Critical_linear.check_oblivious ~standard rules )
    | Semi_oblivious ->
      ( "critical-weak-acyclicity",
        "no cycle of frontier-productive transitions",
        Critical_linear.check_semi_oblivious ~standard rules )
    | Restricted ->
      invalid_arg
        "Linear.check: Theorem 2 covers the (semi-)oblivious chase only"
  in
  match outcome with
  | Critical_linear.Terminating ->
    Verdict.terminates ~procedure
      ~evidence:
        (no_lasso
       ^ " in the pattern-transition system, and the chase of the critical \
          instance closes")
  | Critical_linear.Non_terminating cert ->
    Verdict.diverges ~witness:(Verdict.Linear_pump cert) ~procedure
      ~evidence:
        (Fmt.str "confirmed pump (%d laps replayed): %a" cert.laps_checked
           (Critical_linear.pp_certificate rules)
           cert)
      ()
  | Critical_linear.Inconclusive msg -> Verdict.unknown ~procedure ~evidence:msg

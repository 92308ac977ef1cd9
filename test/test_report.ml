(** Tests for the analysis portfolio report. *)

open Chase
open Test_util

let test_report_separator () =
  let t = Report.build Families.separator in
  Alcotest.(check bool) "not RA" false t.Report.acyclicity.Report.richly_acyclic;
  Alcotest.(check bool) "WA" true t.Report.acyclicity.Report.weakly_acyclic;
  Alcotest.(check bool) "JA" true t.Report.acyclicity.Report.jointly_acyclic;
  Alcotest.(check (option bool)) "MFA" (Some true) t.Report.acyclicity.Report.mfa;
  Alcotest.(check bool) "o diverges" true (Verdict.is_diverging t.Report.oblivious);
  Alcotest.(check bool) "so terminates" true
    (Verdict.is_terminating t.Report.semi_oblivious);
  Alcotest.(check bool) "restricted terminates" true
    (Verdict.is_terminating t.Report.restricted);
  Alcotest.(check bool) "critical run closed" true
    (t.Report.critical_run.Report.status = Engine.Terminated)

let test_report_mfa_witness () =
  let t = Report.build Families.mfa_incomplete_witness in
  (* every syntactic condition fails, both exact verdicts terminate *)
  Alcotest.(check bool) "no syntactic condition holds" true
    ((not t.Report.acyclicity.Report.weakly_acyclic)
    && (not t.Report.acyclicity.Report.jointly_acyclic)
    && t.Report.acyclicity.Report.mfa = Some false);
  Alcotest.(check bool) "o terminates (exact)" true
    (Verdict.is_terminating t.Report.oblivious);
  Alcotest.(check bool) "so terminates (exact)" true
    (Verdict.is_terminating t.Report.semi_oblivious)

let test_report_consistency_random =
  qcheck ~count:30 "report verdicts are internally consistent"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.linear ~seed () in
      let t = Report.build ~budget:8_000 rules in
      (* the acyclicity lattice *)
      let lattice_ok =
        ((not t.Report.acyclicity.Report.richly_acyclic)
        || t.Report.acyclicity.Report.weakly_acyclic)
        && ((not t.Report.acyclicity.Report.weakly_acyclic)
           || t.Report.acyclicity.Report.jointly_acyclic)
      in
      (* o-termination implies so-termination *)
      let variants_ok =
        (not (Verdict.is_terminating t.Report.oblivious))
        || Verdict.is_terminating t.Report.semi_oblivious
      in
      (* a closed critical run implies a so-terminates verdict on linear *)
      let run_ok =
        t.Report.critical_run.Report.status <> Engine.Terminated
        || Verdict.is_terminating t.Report.semi_oblivious
      in
      lattice_ok && variants_ok && run_ok)

(* tiny substring helper to avoid a dependency *)
let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_report_pp () =
  let s = Fmt.str "%a" Report.pp (Report.build Families.example2) in
  Alcotest.(check bool) "mentions class" true (contains_sub s "simple-linear");
  Alcotest.(check bool) "mentions verdicts" true (contains_sub s "diverges")

(* The report's MFA row comes from its own critical run, which MFA
   watches; at the same budget it gives Mfa.check's answer. *)
let test_report_mfa_row () =
  List.iter
    (fun (name, rules) ->
      let want =
        match Mfa.check ~budget:2_000 rules with
        | `Mfa -> Some true
        | `Not_mfa _ -> Some false
        | `Unknown _ -> None
      in
      Alcotest.(check (option bool)) name want
        (Report.build ~budget:2_000 rules).Report.acyclicity.Report.mfa)
    (("sl-chain-400", Families.sl_chain 400)
    :: ("genealogy", parse (read_data "genealogy.chase"))
    :: Families.catalogue)

let suite =
  [
    Alcotest.test_case "report on the separator" `Quick test_report_separator;
    Alcotest.test_case "report on the MFA witness" `Quick test_report_mfa_witness;
    test_report_consistency_random;
    Alcotest.test_case "report pretty-prints" `Quick test_report_pp;
    Alcotest.test_case "report's MFA row = Mfa.check" `Quick test_report_mfa_row;
  ]

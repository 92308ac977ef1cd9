(** Tests for joint acyclicity and the restricted-chase checker. *)

open Chase
open Test_util

(* ---------------- joint acyclicity ---------------- *)

let test_ja_classics () =
  Alcotest.(check bool) "example2 not JA" false
    (Joint.is_jointly_acyclic Families.example2);
  Alcotest.(check bool) "separator is JA" true
    (Joint.is_jointly_acyclic Families.separator);
  Alcotest.(check bool) "chain is JA" true
    (Joint.is_jointly_acyclic (Families.sl_chain 4));
  Alcotest.(check bool) "full rules trivially JA" true
    (Joint.is_jointly_acyclic (parse "e(X, Y), e(Y, Z) -> e(X, Z)."))

let test_ja_strictly_beyond_wa () =
  (* the JA \ WA witness: the null at q2 cannot cover both body positions
     of Z in the second rule, so no existential depends on itself *)
  let rules =
    parse "p(X, Y) -> q(Y, Z). q(Y, Z), r(Z) -> p(Y, Z)."
  in
  Alcotest.(check bool) "not WA (dangerous position cycle)" false
    (Weak.is_weakly_acyclic rules);
  Alcotest.(check bool) "JA" true (Joint.is_jointly_acyclic rules);
  (* and JA is right: the so-chase terminates *)
  Alcotest.(check bool) "so-chase of crit terminates" true
    (crit_chase_terminates Variant.Semi_oblivious rules)

let test_ja_certificate () =
  match Joint.check Families.example2 with
  | None -> Alcotest.fail "expected a cyclic dependency"
  | Some cycle -> Alcotest.(check bool) "nonempty cycle" true (cycle <> [])

(* WA ⟹ JA on random rule sets *)
let wa_implies_ja =
  qcheck ~count:300 "weakly acyclic ⟹ jointly acyclic"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.guarded ~seed () in
      (not (Weak.is_weakly_acyclic rules)) || Joint.is_jointly_acyclic rules)

(* JA is sound for the semi-oblivious chase *)
let ja_sound =
  qcheck ~count:150 "JA sound for the semi-oblivious chase"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.guarded ~seed () in
      (not (Joint.is_jointly_acyclic rules))
      || crit_chase_terminates ~budget:20_000 Variant.Semi_oblivious rules)

(* ---------------- model-faithful acyclicity ---------------- *)

let test_mfa_classics () =
  Alcotest.(check bool) "example2 not MFA" false (Mfa.is_mfa Families.example2);
  Alcotest.(check bool) "separator is MFA" true (Mfa.is_mfa Families.separator);
  Alcotest.(check bool) "chain is MFA" true (Mfa.is_mfa (Families.sl_chain 4));
  Alcotest.(check bool) "thm2 counterexample is MFA" true
    (Mfa.is_mfa Families.thm2_counterexample);
  Alcotest.(check bool) "datalog is MFA" true
    (Mfa.is_mfa (parse "e(X, Y), e(Y, Z) -> e(X, Z)."))

let test_mfa_certificate () =
  match Mfa.check Families.example2 with
  | `Not_mfa msg -> Alcotest.(check bool) "message nonempty" true (msg <> "")
  | `Mfa | `Unknown _ -> Alcotest.fail "expected a cyclic term"

let test_mfa_beyond_ja () =
  (* the JA witness is of course also MFA *)
  let rules = parse "p(X, Y) -> q(Y, Z). q(Y, Z), r(Z) -> p(Y, Z)." in
  Alcotest.(check bool) "JA witness is MFA" true (Mfa.is_mfa rules)

(* JA ⟹ MFA on random sets (the sufficient-condition lattice) *)
let ja_implies_mfa =
  qcheck ~count:150 "jointly acyclic ⟹ MFA"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.guarded ~seed () in
      (not (Joint.is_jointly_acyclic rules)) || Mfa.is_mfa rules)

(* MFA sound for the semi-oblivious chase *)
let mfa_sound =
  qcheck ~count:150 "MFA sound for the semi-oblivious chase"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.linear ~seed () in
      (not (Mfa.is_mfa rules))
      || crit_chase_terminates ~budget:20_000 Variant.Semi_oblivious rules)

(* MFA is genuinely incomplete even on linear TGDs: the named witness
   terminates under the so-chase yet builds a cyclic skolem term *)
let test_mfa_incomplete_witness () =
  let rules = Families.mfa_incomplete_witness in
  Alcotest.(check bool) "so-chase terminates" true
    (crit_chase_terminates ~budget:20_000 Variant.Semi_oblivious rules);
  Alcotest.(check bool) "yet not MFA" false (Mfa.is_mfa rules);
  (* and the exact Theorem-2 procedure is right where MFA is not *)
  Alcotest.(check bool) "critical-WA is exact" true
    (Verdict.is_terminating
       (Linear.check ~standard:false ~variant:Variant.Semi_oblivious rules))

(* MFA's answer class at budget 2,000 on the shipped rule-only programs,
   the named families and 100 seeds of each random generator: 'y' MFA,
   'n' a cyclic term, '?' budget exhausted.  Pinned so that a change of
   how the critical chase is run cannot move a verdict unseen. *)
let mfa_class rules =
  match Mfa.check ~budget:2_000 rules with
  | `Mfa -> 'y'
  | `Not_mfa _ -> 'n'
  | `Unknown _ -> '?'

let test_mfa_classes_pinned () =
  List.iter
    (fun (file, want) ->
      Alcotest.(check char) file want (mfa_class (parse (read_data file))))
    [ ("divergent_zoo.chase", 'n'); ("genealogy.chase", 'n'); ("university.chase", 'y') ];
  Alcotest.(check string) "Families.catalogue" "nnyyynyynnnyyny"
    (String.of_seq (List.to_seq (List.map (fun (_, r) -> mfa_class r) Families.catalogue)));
  Alcotest.(check char) "sl_chain 400" '?' (mfa_class (Families.sl_chain 400));
  let seeds gen = String.init 100 (fun seed -> mfa_class (gen ~seed ())) in
  Alcotest.(check string) "Random_tgds.linear 0-99"
    "ynynynynyyyyyyynyyyynyyyynynyyyynynyyynnynnnyyyyynynnnnnnyyynyyyyyynyyyynynyyynnyynyynynyyyyyynyyyyy"
    (seeds (fun ~seed () -> Random_tgds.linear ~seed ()));
  Alcotest.(check string) "Random_tgds.guarded 0-99"
    "nnynynyyynnyyynnnynynynyyynynyyynnnynynyynnynnnynyynnnyyynnyynnnyyyynyynnyyynynnnyynynynnynnnyyyynny"
    (seeds (fun ~seed () -> Random_tgds.guarded ~seed ()))

(* ---------------- restricted checker ---------------- *)

let answer rules = Verdict.answer (Restricted.check rules)

let test_restricted_separator_terminates () =
  Alcotest.(check bool) "restricted separator: single-head linear" true
    (Classify.is_single_head Families.restricted_separator = false);
  (* two head atoms: not single-head, so the probe answers Unknown *)
  Alcotest.(check string) "two-head separator stays unknown" "unknown"
    (Verdict.answer_to_string (answer Families.restricted_separator))

let test_restricted_divergence_witnessed () =
  Alcotest.(check string) "example2 diverges restrictedly" "diverges"
    (Verdict.answer_to_string (answer Families.example2))

let test_restricted_single_head_probe () =
  let rules = parse "q0(X) -> q1(X, Z). q1(X, Y) -> q2(Y)." in
  Alcotest.(check bool) "single-head linear" true
    (Classify.is_single_head rules && Classify.is_linear rules);
  (* weakly acyclic, so the sufficient path answers first *)
  Alcotest.(check string) "terminates" "terminates"
    (Verdict.answer_to_string (answer rules))

let test_restricted_single_head_nontrivial () =
  (* not WA (dangerous cycle), single-head linear, restrictedly
     terminating on the generic instance: gets the §4 probe verdict *)
  let rules = parse "e(X, Y) -> e(Y, X)." in
  (* full rule: WA, terminates trivially; use an existential variant *)
  ignore rules;
  let rules = parse "e(X, Y) -> f(Y, Z). f(X, Y) -> e(Y, X)." in
  match Verdict.answer (Restricted.check rules) with
  | Verdict.Terminates | Verdict.Diverges -> ()
  | Verdict.Unknown -> Alcotest.fail "single-head linear should get a verdict"

(* restricted ⊇ semi-oblivious: if the so-chase of crit terminates, the
   restricted chase terminates on the generic instance too *)
let restricted_below_so =
  qcheck ~count:100 "so-termination implies restricted termination (probe)"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.linear ~seed () in
      (not (crit_chase_terminates Variant.Semi_oblivious rules))
      ||
      let generic = Critical.generic_of_rules rules in
      let config =
        {
          Engine.variant = Variant.Restricted;
          limits = Limits.make ~max_triggers:20_000 ~max_atoms:80_000 ();
        }
      in
      (Engine.run ~config rules (Instance.to_list generic)).Engine.status
      = Engine.Terminated)

let test_decide_dispatches_restricted () =
  let v = Decide.check ~variant:Variant.Restricted Families.example2 in
  Alcotest.(check string) "decide routes to restricted checker" "diverges"
    (Verdict.answer_to_string (Verdict.answer v))

let suite =
  [
    Alcotest.test_case "JA classics" `Quick test_ja_classics;
    Alcotest.test_case "JA strictly beyond WA" `Quick test_ja_strictly_beyond_wa;
    Alcotest.test_case "JA certificate" `Quick test_ja_certificate;
    wa_implies_ja;
    ja_sound;
    Alcotest.test_case "MFA classics" `Quick test_mfa_classics;
    Alcotest.test_case "MFA certificate" `Quick test_mfa_certificate;
    Alcotest.test_case "MFA beyond JA" `Quick test_mfa_beyond_ja;
    ja_implies_mfa;
    mfa_sound;
    Alcotest.test_case "MFA incomplete on linear (witness)" `Quick
      test_mfa_incomplete_witness;
    Alcotest.test_case "MFA answer classes pinned (budget 2,000)" `Quick
      test_mfa_classes_pinned;
    Alcotest.test_case "restricted: two-head separator unknown" `Quick
      test_restricted_separator_terminates;
    Alcotest.test_case "restricted: divergence witnessed" `Quick
      test_restricted_divergence_witnessed;
    Alcotest.test_case "restricted: single-head probe" `Quick
      test_restricted_single_head_probe;
    Alcotest.test_case "restricted: nontrivial single-head" `Quick
      test_restricted_single_head_nontrivial;
    restricted_below_so;
    Alcotest.test_case "decide dispatches restricted" `Quick
      test_decide_dispatches_restricted;
  ]

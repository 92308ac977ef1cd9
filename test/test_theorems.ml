(** Empirical validation of the paper's theorems: the agreement checks
    of EXPERIMENTS.md E1, E2 (with E2c's generator profiles), E4a and
    E5, and the counts behind the E3 and E4b cost shapes.

    The chase-simulation oracle decides termination on the critical
    instance with a budget; on the tiny rule sets generated here the
    budgets are far beyond any terminating chase, so oracle disagreement
    with the exact procedures would expose real bugs. *)

open Chase
open Test_util

let oracle ?(budget = 20_000) variant rules =
  crit_chase_terminates ~budget variant rules

(* The Theorem 1 legs' oracle is the same chase stopped at the first
   lasso Lasso.check accepts (DESIGN.md §3.13), read as "does not
   terminate".  RA and WA never run the lasso, so these legs test its
   soundness as well; the other legs keep the plain chase, so no
   procedure is compared with itself. *)
let lasso_oracle variant rules =
  match Simulation.chase ~standard:false ~budget:20_000 ~variant rules with
  | Simulation.Closed _ -> true
  | Simulation.Lasso _ | Simulation.Exhausted _ -> false

(* ---------------- Theorem 1: SL ---------------- *)

let thm1_oblivious =
  qcheck ~count:200 "Thm 1 (o): RA = CT^o on random SL sets"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.simple_linear ~seed () in
      Rich.is_richly_acyclic rules = lasso_oracle Variant.Oblivious rules)

let thm1_semi_oblivious =
  qcheck ~count:200 "Thm 1 (so): WA = CT^so on random SL sets"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.simple_linear ~seed () in
      Weak.is_weakly_acyclic rules = lasso_oracle Variant.Semi_oblivious rules)

let thm1_named_cases () =
  let expect name rules o so =
    Alcotest.(check bool) (name ^ " o") o (Verdict.is_terminating (Sl.check ~variant:Variant.Oblivious rules));
    Alcotest.(check bool) (name ^ " so") so
      (Verdict.is_terminating (Sl.check ~variant:Variant.Semi_oblivious rules))
  in
  expect "example2" Families.example2 false false;
  expect "separator" Families.separator false true;
  expect "chain" (Families.sl_chain 4) true true;
  expect "cycle" (Families.sl_cycle 4) false false;
  expect "benign cycle" (Families.sl_cycle_benign 4) false true

(* ---------------- Theorem 2: L ---------------- *)

let thm2_plain_acyclicity_incomplete () =
  (* the counterexample: dangerous cycle, yet terminating *)
  let rules = Families.thm2_counterexample in
  Alcotest.(check bool) "not WA" false (Weak.is_weakly_acyclic rules);
  Alcotest.(check bool) "o-chase terminates anyway" true (oracle Variant.Oblivious rules);
  Alcotest.(check bool) "critical procedure is exact" true
    (Verdict.is_terminating (Linear.check ~variant:Variant.Oblivious rules))

let thm2_oblivious =
  qcheck ~count:150 "Thm 2 (o): critical-RA = CT^o on random linear sets"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.linear ~seed () in
      Verdict.is_terminating (Linear.check ~standard:false ~variant:Variant.Oblivious rules)
      = oracle Variant.Oblivious rules)

(* The semi-oblivious agreement runs over harder generator profiles as
   well as the default one: more rules at a higher arity, high and low
   existential bias, wider heads.  The low-bias profile once caught a
   real bug (seed 79): a divergent set whose pumping cycle passes
   through the same product state twice, which a simple-cycle lasso
   search cannot traverse. *)
let thm2_profiles =
  let d = Random_tgds.default_profile in
  [
    ("default", d);
    ("5 rules, arity<=4", { d with n_rules = 5; max_arity = 4 });
    ("high existential bias", { d with existential_bias = 0.7 });
    ("low existential bias", { d with existential_bias = 0.15 });
    ("4 preds, 3 heads", { d with n_preds = 4; max_head = 3 });
  ]

let thm2_semi_oblivious =
  qcheck ~count:250 "Thm 2 (so): critical-WA = CT^so on random linear sets"
    (QCheck.make
       ~print:(fun ((name, _), seed) -> Fmt.str "%s, seed %d" name seed)
       QCheck.Gen.(pair (oneofl thm2_profiles) small_nat))
    (fun ((_, profile), seed) ->
      let rules = Random_tgds.linear ~seed ~profile () in
      Verdict.is_terminating
        (Linear.check ~standard:false ~variant:Variant.Semi_oblivious rules)
      = oracle Variant.Semi_oblivious rules)

let thm2_arity_family () =
  List.iter
    (fun arity ->
      Alcotest.(check bool)
        (Fmt.str "rotating arity %d diverges" arity)
        false
        (Verdict.is_terminating
           (Linear.check ~variant:Variant.Oblivious (Families.linear_rotating ~arity)));
      Alcotest.(check bool)
        (Fmt.str "blocked arity %d terminates" arity)
        true
        (Verdict.is_terminating
           (Linear.check ~variant:Variant.Oblivious (Families.linear_blocked ~arity))))
    [ 2; 3; 4 ]

(* Linear.check's full verdict text (answer, procedure, evidence with its
   printed certificate) under o and so on the named linear families and
   400 random linear sets, pinned as one MD5 so that a change of how the
   pump search or the closing chase is run cannot move a verdict or a
   certificate unseen. *)
let thm2_verdict_texts_pinned () =
  let d = Random_tgds.default_profile in
  let named =
    List.map (fun arity -> (true, Families.linear_rotating ~arity)) [ 2; 3; 4 ]
    @ List.map
        (fun arity -> (true, Families.linear_blocked ~arity))
        [ 2; 3; 4; 5; 6; 7; 8 ]
    @ List.map
        (fun rules -> (true, rules))
        [ Families.thm2_counterexample; Families.mfa_incomplete_witness;
          Families.example2 ]
  in
  let random =
    List.concat_map
      (fun constant_bias ->
        List.init 200 (fun seed ->
            ( false,
              Random_tgds.linear ~seed ~profile:{ d with constant_bias } () )))
      [ 0.; 0.3 ]
  in
  let texts =
    List.concat_map
      (fun (standard, rules) ->
        List.map
          (fun variant ->
            Fmt.str "%a" Verdict.pp (Linear.check ~standard ~variant rules))
          [ Variant.Oblivious; Variant.Semi_oblivious ])
      (named @ random)
  in
  Alcotest.(check int) "texts" 826 (List.length texts);
  Alcotest.(check string) "MD5 of the joined texts" "cf215615267a4e1da7ad2fd735596ac5"
    (Digest.to_hex (Digest.string (String.concat "\n" texts)))

(* The closing chase of the linear procedure is the caller's: its budget
   and its cancellation token govern it, and an exhausted chase names
   the limit it breached.  linear_blocked at arity 8 has no pump; its
   crit(Σ) has 6,561 facts and its chase closes after 2,187 triggers
   (the pinned texts above cover its default-budget answer). *)
let thm2_closing_chase_budgeted () =
  let rules = Families.linear_blocked ~arity:8 in
  List.iter
    (fun variant ->
      let v = Linear.check ~budget:1_000 ~variant rules in
      Alcotest.(check string)
        (Fmt.str "%a: unknown at budget 1,000" Variant.pp variant)
        "unknown"
        (Verdict.answer_to_string (Verdict.answer v));
      Alcotest.(check bool)
        (Fmt.str "%a: the evidence names the breached atom budget" Variant.pp
           variant)
        true
        (contains v.Verdict.evidence "atom budget of 4000 facts");
      let v =
        Linear.check ~limits:(Limits.make ~max_triggers:1_000 ()) ~variant rules
      in
      Alcotest.(check bool)
        (Fmt.str "%a: the evidence names the breached trigger budget"
           Variant.pp variant)
        true
        (Verdict.is_unknown v
        && contains v.Verdict.evidence "trigger budget of 1000 applications"))
    [ Variant.Oblivious; Variant.Semi_oblivious ]

let thm2_closing_chase_cancelled () =
  let cancel = Limits.Cancel.create () in
  Limits.Cancel.cancel ~reason:"test" cancel;
  let limits = Limits.make ~max_triggers:50_000 ~cancel () in
  let v =
    Decide.check ~limits ~variant:Variant.Semi_oblivious
      (Families.linear_blocked ~arity:8)
  in
  Alcotest.(check string) "cancelled token: unknown" "unknown"
    (Verdict.answer_to_string (Verdict.answer v));
  Alcotest.(check bool) "the evidence names the cancellation" true
    (contains v.Verdict.evidence "cancellation request (test)")

(* ---------------- Grahne–Onet: CT^o ⊆ CT^so ---------------- *)

let cto_subset_ctso =
  qcheck ~count:200 "CT^o ⊆ CT^so (linear sets)"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.linear ~seed () in
      (not (oracle Variant.Oblivious rules)) || oracle Variant.Semi_oblivious rules)

(* ---------------- Theorem 4: guarded ---------------- *)

let thm4_named_cases () =
  let check_t name rules expected =
    let v = Guarded.check ~variant:Variant.Semi_oblivious rules in
    Alcotest.(check string) name expected (Verdict.answer_to_string (Verdict.answer v))
  in
  check_t "guarded divergent" (Families.guarded_divergent ~arity:3) "diverges";
  check_t "guarded terminating" (Families.guarded_terminating ~arity:3) "terminates";
  check_t "guarded tower" (Families.guarded_tower ~levels:3) "terminates"

(* The family is divergent only from arity 2: at arity 1 the frontier is
   empty, so the semi-oblivious chase fires once and stops. *)
let guarded_divergent_arity () =
  Alcotest.check_raises "arity 1 is refused"
    (Invalid_argument "guarded_divergent: arity must be ≥ 2") (fun () ->
      ignore (Families.guarded_divergent ~arity:1));
  List.iter
    (fun variant ->
      let v = Guarded.check ~variant (Families.guarded_divergent ~arity:2) in
      Alcotest.(check string)
        (Fmt.str "arity 2 diverges under %a" Variant.pp variant)
        "diverges"
        (Verdict.answer_to_string (Verdict.answer v)))
    [ Variant.Oblivious; Variant.Semi_oblivious ]

let thm4_agreement =
  qcheck ~count:60 "Thm 4: guarded checker agrees with the chase oracle"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules = Random_tgds.guarded ~seed () in
      let oracle_terminates = oracle ~budget:8_000 Variant.Semi_oblivious rules in
      match
        Verdict.answer (Guarded.check ~budget:8_000 ~variant:Variant.Semi_oblivious rules)
      with
      | Verdict.Terminates -> oracle_terminates
      | Verdict.Diverges -> not oracle_terminates
      | Verdict.Unknown -> not oracle_terminates (* budget cases must at least not be terminating *))

(* ---------------- Theorems 3 and 4: cost shapes as counts ---------------- *)

(* Bell(k): the number of partitions of k positions *)
let bell = [| 1; 1; 2; 5; 15; 52; 203 |]

let shapes () =
  (* Thm 3(1): the SL check is reachability over positions, which grow
     linearly with the rule set *)
  List.iter
    (fun (n, positions) ->
      Alcotest.(check int)
        (Fmt.str "sl_chain %d positions" n)
        positions
        (Schema.position_count (Schema.of_rules (Families.sl_chain n))))
    [ (16, 34); (64, 130); (256, 514); (1024, 2050) ];
  (* Thm 3(2): the linear procedure explores patterns, whose number is
     governed by arity and bounded by Bell(k)·2^k *)
  let patterns arity =
    let rules = Families.linear_rotating ~arity in
    Pattern.Set.cardinal
      (Critical_linear.reachable_patterns
         ~constants:(Critical.constants_for ~standard:false rules)
         rules)
  in
  let counts = List.map patterns [ 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "rotating pattern counts" [ 3; 4; 5; 6; 7 ] counts;
  Alcotest.(check bool) "pattern count does not fall as arity grows" true
    (counts = List.sort compare counts);
  List.iteri
    (fun i n ->
      let k = i + 2 in
      Alcotest.(check bool)
        (Fmt.str "arity %d: %d patterns within Bell(k)·2^k" k n)
        true
        (n <= bell.(k) * (1 lsl k)))
    counts;
  (* Thm 4: the terminating guarded family's critical chase grows with
     arity *)
  List.iter
    (fun (arity, triggers, facts) ->
      let rules = Families.guarded_terminating ~arity in
      let r =
        chase ~variant:Variant.Semi_oblivious ~budget:3_000 rules
          (Instance.to_list (Critical.of_rules ~standard:true rules))
      in
      Alcotest.(check (pair int int))
        (Fmt.str "guarded_terminating %d: critical chase triggers, facts" arity)
        (triggers, facts)
        (r.Engine.triggers_applied, Instance.cardinal r.Engine.instance);
      Alcotest.(check bool) "closed" false (exhausted r))
    [ (1, 5, 18); (2, 6, 33); (3, 12, 81); (4, 30, 225) ]

(* ---------------- the Decide dispatcher ---------------- *)

(* Decide hands its watchdog to the guarded procedure's chase: a
   snapshot every 1,024 steps, no time gating, until the 20,000-trigger
   budget runs out.  The set alternates two rules, so no one-rule lasso
   stops the chase early. *)
let decide_guarded_watchdog () =
  let steps = ref [] in
  let watchdog =
    Watchdog.create ~every:1024 (fun s -> steps := s.Watchdog.step :: !steps)
  in
  let v =
    Decide.check ~budget:20_000 ~watchdog ~variant:Variant.Semi_oblivious
      (parse "a: h(X, Y), e(Y) -> k(Y, Z), f(Z).\nb: k(X, Y), f(Y) -> h(Y, Z), e(Z).")
  in
  Alcotest.(check string) "procedure" "guarded-types" v.Verdict.procedure;
  Alcotest.(check (list int)) "snapshot steps"
    (List.init 19 (fun i -> 1024 * (i + 1)))
    (List.rev !steps)

let decide_catalogue () =
  (* every catalogue family gets a definite, correct answer *)
  List.iter
    (fun (name, rules) ->
      let expected = oracle Variant.Semi_oblivious rules in
      let v = Decide.check ~variant:Variant.Semi_oblivious rules in
      match Verdict.answer v with
      | Verdict.Terminates ->
        Alcotest.(check bool) (name ^ ": terminates correct") true expected
      | Verdict.Diverges ->
        Alcotest.(check bool) (name ^ ": diverges correct") false expected
      | Verdict.Unknown -> Alcotest.fail (name ^ ": expected a definite answer"))
    (List.filter (fun (n, _) -> n <> "restricted-separator") Families.catalogue)

let decide_uses_fast_path () =
  let v = Decide.check ~variant:Variant.Oblivious Families.example2 in
  Alcotest.(check string) "SL handled by acyclicity" "rich-acyclicity" v.Verdict.procedure;
  let v2 = Decide.check ~variant:Variant.Oblivious Families.thm2_counterexample in
  Alcotest.(check string) "L handled by critical procedure"
    "critical-rich-acyclicity" v2.Verdict.procedure

let suite =
  [
    thm1_oblivious;
    thm1_semi_oblivious;
    Alcotest.test_case "Thm 1 named cases" `Quick thm1_named_cases;
    Alcotest.test_case "Thm 2: plain acyclicity incomplete on L" `Quick
      thm2_plain_acyclicity_incomplete;
    thm2_oblivious;
    thm2_semi_oblivious;
    Alcotest.test_case "Thm 2 arity families" `Quick thm2_arity_family;
    cto_subset_ctso;
    Alcotest.test_case "Thm 4 named cases" `Quick thm4_named_cases;
    Alcotest.test_case "guarded_divergent: arity 1 refused, arity 2 diverges" `Quick
      guarded_divergent_arity;
    thm4_agreement;
    Alcotest.test_case "Decide on the catalogue" `Quick decide_catalogue;
    Alcotest.test_case "Decide picks the right procedure" `Quick decide_uses_fast_path;
    Alcotest.test_case "Thm 3/4 shapes: counts grow with size and arity" `Quick shapes;
    Alcotest.test_case "Thm 2 verdict texts pinned (o, so)" `Quick
      thm2_verdict_texts_pinned;
    Alcotest.test_case "Thm 2: the closing chase honours the budget" `Quick
      thm2_closing_chase_budgeted;
    Alcotest.test_case "Thm 2: the closing chase honours a cancelled token"
      `Quick thm2_closing_chase_cancelled;
    Alcotest.test_case "Decide streams the guarded chase to its watchdog"
      `Quick decide_guarded_watchdog;
  ]

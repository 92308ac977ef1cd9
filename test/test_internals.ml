(** White-box tests of the analysis internals: the pattern-transition
    system of the linear procedure, variant parsing, verdicts, and shared
    utilities. *)

open Chase
open Test_util

(* ---------------- pattern transitions ---------------- *)

let pattern_of_null_atom () =
  Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 2 ])

let test_transitions_example2 () =
  (* p(X,Y) → ∃Z p(Y,Z) from the all-null pattern *)
  let rules = Families.example2 in
  let trs = Critical_linear.transitions_of rules (pattern_of_null_atom ()) in
  Alcotest.(check int) "one transition" 1 (List.length trs);
  let tr = List.hd trs in
  Alcotest.(check bool) "creates a null" true tr.Critical_linear.creates_null;
  (* frontier Y sits in class 1 of the parent *)
  Alcotest.(check (list int)) "frontier classes" [ 1 ]
    tr.Critical_linear.frontier_classes;
  (* the child is p(#0, #1): Y's class then the fresh null *)
  Alcotest.(check int) "child arity" 2 (Pattern.arity tr.Critical_linear.child);
  (match tr.Critical_linear.sources with
  | [| Critical_linear.From_parent 1; Critical_linear.Fresh |] -> ()
  | _ -> Alcotest.fail "unexpected sources")

let test_transitions_respect_repeated_vars () =
  (* p(X,X) → … applies to the diagonal pattern only *)
  let rules = Families.thm2_counterexample in
  let diag = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 1 ]) in
  let off = pattern_of_null_atom () in
  Alcotest.(check int) "diagonal matches" 1
    (List.length (Critical_linear.transitions_of rules diag));
  Alcotest.(check int) "off-diagonal does not" 0
    (List.length (Critical_linear.transitions_of rules off))

let test_transitions_constant_body () =
  let rules = parse "p(c, X) -> q(X)." in
  let matching = Pattern.of_atom (Atom.of_list "p" [ Term.Const "c"; Term.Null 1 ]) in
  let wrong = Pattern.of_atom (Atom.of_list "p" [ Term.Const "d"; Term.Null 1 ]) in
  Alcotest.(check int) "constant matches" 1
    (List.length (Critical_linear.transitions_of rules matching));
  Alcotest.(check int) "other constant does not" 0
    (List.length (Critical_linear.transitions_of rules wrong))

let test_child_pattern_merges_classes () =
  (* head repeats a frontier variable: both head positions share a class *)
  let rules = parse "p(X, Y) -> q(X, X, Z)." in
  let trs = Critical_linear.transitions_of rules (pattern_of_null_atom ()) in
  let child = (List.hd trs).Critical_linear.child in
  Alcotest.(check int) "two classes in q/3" 2 (Pattern.class_count child);
  Alcotest.(check int) "positions 0 and 1 share" (Pattern.class_of child 0)
    (Pattern.class_of child 1)

let test_child_pattern_constant_label () =
  (* a frontier variable bound to a constant class yields a constant
     label in the child *)
  let rules = parse "p(X, Y) -> q(Y, Z)." in
  let parent = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Const "*" ]) in
  let trs = Critical_linear.transitions_of rules parent in
  let child = (List.hd trs).Critical_linear.child in
  (match Pattern.label_of child (Pattern.class_of child 0) with
  | Pattern.Lconst s -> Alcotest.(check string) "constant flows through" "*" s
  | Pattern.Lnull -> Alcotest.fail "expected a constant label")

let test_reachable_patterns_example2 () =
  let rules = Families.example2 in
  let reach =
    Critical_linear.reachable_patterns ~constants:[ Critical.star ] rules
  in
  (* p(✶,✶), p(✶,#0), p(#0,#1) — the diagonal all-null pattern is NOT
     reachable (fresh nulls are always new) *)
  Alcotest.(check int) "three patterns" 3 (Pattern.Set.cardinal reach);
  let diag = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 1 ]) in
  Alcotest.(check bool) "no diagonal nulls" false (Pattern.Set.mem diag reach)

let test_confirm_rejects_fake_pump () =
  (* the identity-ish cycle on the separator's stable pattern produces
     the same frontier key every lap: confirm must reject it for so *)
  let rules = Families.separator in
  let parent = Pattern.of_atom (Atom.of_list "p" [ Term.Const "*"; Term.Null 1 ]) in
  let trs = Critical_linear.transitions_of rules parent in
  Alcotest.(check int) "one transition" 1 (List.length trs);
  Alcotest.(check bool) "so-pump rejected" false
    (Critical_linear.confirm ~semi:true rules ~start:parent ~cycle:trs ~laps:4);
  Alcotest.(check bool) "o-pump confirmed" true
    (Critical_linear.confirm ~semi:false rules ~start:parent ~cycle:trs ~laps:4)

(* ---------------- guarded internals ---------------- *)

let test_guarded_pump_structure () =
  let rules = Families.guarded_divergent ~arity:2 in
  let crit = Critical.of_rules rules in
  let config =
    { Engine.variant = Variant.Semi_oblivious;
      limits = Limits.make ~max_triggers:500 ~max_atoms:2000 () }
  in
  let result = Engine.run ~config rules (Instance.to_list crit) in
  Alcotest.(check bool) "budget hit" true
    (Engine.exhausted result);
  match Guarded.find_pump result with
  | None -> Alcotest.fail "expected a pump"
  | Some pump ->
    Alcotest.(check bool) "at least 3 occurrences" true
      (List.length pump.Guarded.occurrences >= 3);
    Alcotest.(check bool) "chain long enough" true (pump.Guarded.chain_length >= 3);
    (* the recurring facts all have the same predicate and pattern *)
    let patterns =
      List.map Pattern.of_atom pump.Guarded.occurrences
      |> List.sort_uniq Pattern.compare
    in
    Alcotest.(check int) "single recurring pattern" 1 (List.length patterns)

let test_guarded_no_pump_on_terminating () =
  let rules = Families.guarded_tower ~levels:3 in
  let crit = Critical.of_rules rules in
  let config =
    { Engine.variant = Variant.Semi_oblivious;
      limits = Limits.make ~max_triggers:10_000 ~max_atoms:40_000 () }
  in
  let result = Engine.run ~config rules (Instance.to_list crit) in
  Alcotest.(check bool) "terminated" true (result.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "no pump on a closed run" true
    (Guarded.find_pump result = None)

(* ---------------- variants, verdicts, util ---------------- *)

let test_variant_parsing () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Variant.to_string v ^ " roundtrips")
        true
        (Variant.of_string (Variant.to_string v) = Some v))
    Variant.all;
  Alcotest.(check bool) "skolem alias" true
    (Variant.of_string "skolem" = Some Variant.Semi_oblivious);
  Alcotest.(check bool) "garbage rejected" true (Variant.of_string "frisky" = None)

let test_verdict_accessors () =
  let v = Verdict.diverges ~procedure:"test" ~evidence:"because" () in
  Alcotest.(check bool) "diverging" true (Verdict.is_diverging v);
  Alcotest.(check bool) "not terminating" false (Verdict.is_terminating v);
  Alcotest.(check bool) "pp mentions procedure" true
    (let s = Verdict.to_string v in
     String.length s > 0
     &&
     let re_found = ref false in
     String.iteri
       (fun i _ ->
         if i + 4 <= String.length s && String.sub s i 4 = "test" then
           re_found := true)
       s;
     !re_found)

let test_subst_agree_on () =
  let module S = Chase_logic.Util.Sset in
  let s1 = Subst.of_list [ ("X", Term.Const "a"); ("Y", Term.Const "b") ] in
  let s2 = Subst.of_list [ ("X", Term.Const "a"); ("Y", Term.Const "c") ] in
  Alcotest.(check bool) "agree on X" true (Subst.agree_on (S.singleton "X") s1 s2);
  Alcotest.(check bool) "disagree on Y" false (Subst.agree_on (S.singleton "Y") s1 s2);
  Alcotest.(check bool) "unbound on both counts as agreement" true
    (Subst.agree_on (S.singleton "Z") s1 s2)

let test_schema_union () =
  let s1 = Schema.of_rules (parse "p(X) -> q(X).") in
  let s2 = Schema.of_rules (parse "q(X) -> r(X, Y).") in
  let u = Schema.union s1 s2 in
  Alcotest.(check int) "three predicates" 3 (Schema.cardinal u)

let suite =
  [
    Alcotest.test_case "transitions: example 2" `Quick test_transitions_example2;
    Alcotest.test_case "transitions: repeated variables" `Quick
      test_transitions_respect_repeated_vars;
    Alcotest.test_case "transitions: body constants" `Quick
      test_transitions_constant_body;
    Alcotest.test_case "child pattern merges classes" `Quick
      test_child_pattern_merges_classes;
    Alcotest.test_case "child pattern constant labels" `Quick
      test_child_pattern_constant_label;
    Alcotest.test_case "reachable patterns of example 2" `Quick
      test_reachable_patterns_example2;
    Alcotest.test_case "confirm rejects fake pumps" `Quick test_confirm_rejects_fake_pump;
    Alcotest.test_case "guarded pump structure" `Quick test_guarded_pump_structure;
    Alcotest.test_case "guarded: no pump on terminating" `Quick
      test_guarded_no_pump_on_terminating;
    Alcotest.test_case "variant parsing" `Quick test_variant_parsing;
    Alcotest.test_case "verdict accessors" `Quick test_verdict_accessors;
    Alcotest.test_case "subst agree_on" `Quick test_subst_agree_on;
    Alcotest.test_case "schema union" `Quick test_schema_union;
  ]

(** The Σ-lint engine: every diagnostic code triggered with its witness
    structurally verified, the corpus kept clean, the explainer kept in
    agreement with {!Decide}, and the whole battery fuzz-hardened. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let lint ?explain src =
  match Parser.parse_located src with
  | Error msg -> Alcotest.fail ("parse: " ^ msg)
  | Ok p -> Lint.analyze ?explain (Lint.of_program p)

let diags_of_code code (report : Lint.report) =
  List.filter (fun d -> d.Diagnostic.code = code) report.Lint.diagnostics

let the_diag code report =
  match diags_of_code code report with
  | [ d ] -> d
  | ds ->
    Alcotest.failf "expected exactly one %s, got %d"
      (Diagnostic.code_id code) (List.length ds)

let located rules = List.mapi (fun i r -> (r, i + 1)) rules

(* ------------------------------------------------------------------ *)
(* E001 arity-clash                                                    *)
(* ------------------------------------------------------------------ *)

let test_e001_across_rules () =
  let report = lint "p(X,Y) -> q(X).\nq(X,Y) -> p(Y,X).\n" in
  let d = the_diag Diagnostic.E001 report in
  Alcotest.(check (option int)) "span: second use" (Some 2) d.Diagnostic.line;
  (match d.Diagnostic.witness with
  | Diagnostic.Arity_uses { pred; uses } ->
    Alcotest.(check string) "pred" "q" pred;
    Alcotest.(check (list (pair int int)))
      "arities with first-use lines" [ (1, 1); (2, 2) ] uses
  | _ -> Alcotest.fail "expected an Arity_uses witness");
  Alcotest.(check int) "exit code 2" 2 (Lint.exit_code report);
  (* an unguarded rule is also present, but E001 short-circuits: the
     deeper passes assume a consistent schema *)
  let report2 = lint "a(X,Y), b(Y,Z) -> c(X,Z).\na(X) -> b(X,X).\n" in
  Alcotest.(check int) "only the E001 is reported" 1
    (List.length report2.Lint.diagnostics);
  ignore (the_diag Diagnostic.E001 report2)

let test_e001_rule_vs_fact () =
  let report = lint "p(X) -> r(X).\np(a, b).\n" in
  let d = the_diag Diagnostic.E001 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Arity_uses { pred; uses } ->
    Alcotest.(check string) "pred" "p" pred;
    Alcotest.(check (list (pair int int))) "rule use then fact use"
      [ (1, 1); (2, 2) ] uses
  | _ -> Alcotest.fail "expected an Arity_uses witness");
  (* consistent program: no diagnostic *)
  Alcotest.(check int) "clean when consistent" 0
    (List.length (lint "p(X) -> r(X).\np(a).\n").Lint.diagnostics)

(* ------------------------------------------------------------------ *)
(* W010 unguarded-rule                                                 *)
(* ------------------------------------------------------------------ *)

let test_w010_ancestor_join () =
  let report =
    lint "f5: parent_of(X, Y) -> ancestor_of(X, Y).\nf6: ancestor_of(X, Y), parent_of(Z, X) -> ancestor_of(Z, Y).\n"
  in
  let d = the_diag Diagnostic.W010 report in
  Alcotest.(check (option string)) "named rule" (Some "f6") d.Diagnostic.rule;
  Alcotest.(check (option int)) "line" (Some 2) d.Diagnostic.line;
  (match d.Diagnostic.witness with
  | Diagnostic.Uncovered_vars { rule; vars; candidate } ->
    Alcotest.(check int) "rule index" 1 rule;
    (* both body atoms cover two of the three variables; whichever is
       the candidate, exactly one variable stays uncovered *)
    Alcotest.(check int) "one uncovered variable" 1 (List.length vars);
    Alcotest.(check bool) "has a candidate" true (Option.is_some candidate)
  | _ -> Alcotest.fail "expected an Uncovered_vars witness");
  Alcotest.(check int) "warnings gate exit 1" 1 (Lint.exit_code report)

let test_w010_transitivity () =
  let report = lint "t: e(X, Y), e(Y, Z) -> e(X, Z).\n" in
  let d = the_diag Diagnostic.W010 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Uncovered_vars { vars; candidate; _ } ->
    Alcotest.(check (list term_testable)) "Z uncovered" [ Term.Var "Z" ] vars;
    Alcotest.(check (option atom_testable)) "first maximal candidate"
      (Some (Atom.of_list "e" [ Term.Var "X"; Term.Var "Y" ]))
      candidate
  | _ -> Alcotest.fail "expected an Uncovered_vars witness");
  (* the witness agrees with the classifier on every guarded rule *)
  let guarded = parse "g: q(X,Y), p(Y) -> p(X).\nh: p(X) -> q(X,Z).\n" in
  Alcotest.(check int) "guarded rules produce no W010" 0
    (List.length (Rule_lint.unguarded (located guarded)));
  List.iter
    (fun r ->
      Alcotest.(check (list term_testable)) "empty witness on guarded" []
        (Classify.unguarded_witness r))
    guarded

(* ------------------------------------------------------------------ *)
(* W020 special-edge-cycle (explain battery, Theorem 1 territory)       *)
(* ------------------------------------------------------------------ *)

let test_w020_example2 () =
  let report =
    lint ~explain:[ Variant.Semi_oblivious ] "p(X, Y) -> p(Y, Z).\n"
  in
  let d = the_diag Diagnostic.W020 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Position_cycle { graph; positions } ->
    Alcotest.(check string) "plain dependency graph" "dependency" graph;
    Alcotest.(check bool) "cycle over p positions" true
      (positions <> [] && List.for_all (fun (p, _) -> p = "p") positions)
  | _ -> Alcotest.fail "expected a Position_cycle witness");
  match report.Lint.verdicts with
  | [ (Variant.Semi_oblivious, v) ] ->
    Alcotest.(check bool) "verdict diverges" true (Verdict.is_diverging v)
  | _ -> Alcotest.fail "expected one semi-oblivious verdict"

let test_w020_separator () =
  (* the separator diverges obliviously but terminates semi-obliviously:
     the diagnostic must track the verdict, not just the syntax *)
  let src = "p(X, Y) -> p(X, Z).\n" in
  let o = lint ~explain:[ Variant.Oblivious ] src in
  let d = the_diag Diagnostic.W020 o in
  (match d.Diagnostic.witness with
  | Diagnostic.Position_cycle { graph; _ } ->
    Alcotest.(check string) "extended graph" "extended-dependency" graph
  | _ -> Alcotest.fail "expected a Position_cycle witness");
  let so = lint ~explain:[ Variant.Semi_oblivious ] src in
  Alcotest.(check int) "no diagnostic when terminating" 0
    (List.length so.Lint.diagnostics);
  (match so.Lint.verdicts with
  | [ (_, v) ] ->
    Alcotest.(check bool) "so terminates" true (Verdict.is_terminating v)
  | _ -> Alcotest.fail "expected one verdict");
  (* the pass is also exposed directly *)
  Alcotest.(check int) "direct Plain pass is clean here" 0
    (List.length
       (Graph_lint.dangerous_cycle ~mode:Dep_graph.Plain
          (located (parse src))))

(* ------------------------------------------------------------------ *)
(* W021 realizable-cycle (explain battery, Theorems 2 and 4)            *)
(* ------------------------------------------------------------------ *)

let test_w021_linear_pump () =
  let src = "a: p(X,X) -> q(X,Z).\nb: q(X,Y) -> p(Y,Y).\n" in
  let report = lint ~explain:[ Variant.Semi_oblivious ] src in
  let d = the_diag Diagnostic.W021 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Pump { steps; facts; substitution; laps; start } ->
    Alcotest.(check bool) "nonempty cycle" true (steps <> []);
    Alcotest.(check bool) "rule indices in range" true
      (List.for_all (fun (r, _) -> r >= 0 && r < 2) steps);
    Alcotest.(check int) "one replayed fact per step, plus the start"
      (List.length steps + 1) (List.length facts);
    Alcotest.(check bool) "realizing substitution nonempty" true
      (substitution <> []);
    Alcotest.(check bool) "at least one lap confirmed" true (laps >= 1);
    Alcotest.(check bool) "start pattern rendered" true (start <> "");
    (* the chain is concretely connected: each replayed fact is the
       head instance of its step's rule *)
    List.iteri
      (fun i (rule_idx, head_idx) ->
        let produced = List.nth facts (i + 1) in
        let rule = List.nth (parse src) rule_idx in
        let head = List.nth (Tgd.head rule) head_idx in
        Alcotest.(check string) "replayed fact matches the step's head"
          (Atom.pred head) (Atom.pred produced))
      steps
  | _ -> Alcotest.fail "expected a Pump witness");
  match report.Lint.verdicts with
  | [ (_, v) ] ->
    Alcotest.(check bool) "diverges" true (Verdict.is_diverging v)
  | _ -> Alcotest.fail "expected one verdict"

(* A two-rule lap: no one-rule lasso closes it, so the guarded
   procedure's chase runs to its budget and the recurring-type search
   names the chain. *)
let test_w021_guarded_chain () =
  let report =
    lint ~explain:[ Variant.Semi_oblivious ]
      "a: h(X,Y), e(Y) -> k(Y,Z), f(Z).\nb: k(X,Y), f(Y) -> h(Y,Z), e(Z).\n"
  in
  let d = the_diag Diagnostic.W021 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Guard_chain { occurrences; chain_length } ->
    Alcotest.(check bool) "type recurs" true (List.length occurrences >= 2);
    Alcotest.(check bool) "chain at least as long" true
      (chain_length >= List.length occurrences);
    (match occurrences with
    | a :: rest ->
      Alcotest.(check bool) "same predicate along the chain" true
        (List.for_all (fun b -> Atom.pred b = Atom.pred a) rest)
    | [] -> ())
  | _ -> Alcotest.fail "expected a Guard_chain witness");
  match report.Lint.verdicts with
  | [ (_, v) ] ->
    Alcotest.(check bool) "diverges by guarded-types" true
      (Verdict.is_diverging v)
  | _ -> Alcotest.fail "expected one verdict"

(* A one-rule lap stops the chase at a certified lasso: W021 carries it,
   and its JSON witness is of kind "lasso". *)
let test_w021_lasso () =
  let report =
    lint ~explain:[ Variant.Semi_oblivious ] "w1: p(X, Y), q(Y, Z) -> p(Y, W), q(W, X).\n"
  in
  let d = the_diag Diagnostic.W021 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Lasso { rules; step; _ } ->
    Alcotest.(check (list int)) "the lasso's rule" [ 0 ] rules;
    Alcotest.(check int) "found at step 37" 37 step
  | _ -> Alcotest.fail "expected a Lasso witness");
  Alcotest.(check (option string)) "JSON kind" (Some "lasso")
    (Option.bind
       (Jsonv.member "witness" (Diagnostic.to_json d))
       (fun w -> Option.bind (Jsonv.member "kind" w) Jsonv.to_string_opt))

(* ------------------------------------------------------------------ *)
(* I030 unreachable-predicate and I033 dead-rule                        *)
(* ------------------------------------------------------------------ *)

let test_reachability_simple () =
  let report = lint "r1: p(X) -> q(X).\nr2: s(X) -> t(X).\np(a).\n" in
  let d30 = the_diag Diagnostic.I030 report in
  (match d30.Diagnostic.witness with
  | Diagnostic.Unreachable { pred; used_by } ->
    Alcotest.(check string) "s unreachable" "s" pred;
    Alcotest.(check (list int)) "read by r2" [ 1 ] used_by
  | _ -> Alcotest.fail "expected an Unreachable witness");
  let d33 = the_diag Diagnostic.I033 report in
  (match d33.Diagnostic.witness with
  | Diagnostic.Dead_rule { rule; missing } ->
    Alcotest.(check int) "r2 is dead" 1 rule;
    Alcotest.(check (list string)) "missing s" [ "s" ] missing
  | _ -> Alcotest.fail "expected a Dead_rule witness");
  (* without a database the passes say nothing *)
  Alcotest.(check int) "no facts, no reachability verdicts" 0
    (List.length (lint "r1: p(X) -> q(X).\nr2: s(X) -> t(X).\n").Lint.diagnostics)

let test_reachability_propagates () =
  (* u is missing, which kills r1, which in turn starves r2 of w *)
  let report =
    lint "r1: u(X), v(X) -> w(X).\nr2: w(X) -> z(X).\nv(b).\n"
  in
  let unreachable =
    List.filter_map
      (fun d ->
        match d.Diagnostic.witness with
        | Diagnostic.Unreachable { pred; _ } -> Some pred
        | _ -> None)
      report.Lint.diagnostics
  in
  Alcotest.(check (list string)) "u and w unreachable" [ "u"; "w" ]
    (List.sort String.compare unreachable);
  let dead =
    List.filter_map
      (fun d ->
        match d.Diagnostic.witness with
        | Diagnostic.Dead_rule { rule; _ } -> Some rule
        | _ -> None)
      report.Lint.diagnostics
  in
  Alcotest.(check (list int)) "both rules dead" [ 0; 1 ]
    (List.sort compare dead);
  Alcotest.(check int) "infos never gate" 0 (Lint.exit_code report)

(* ------------------------------------------------------------------ *)
(* I031 subsumed-rule                                                  *)
(* ------------------------------------------------------------------ *)

let test_i031_duplicate () =
  let report = lint "a: p(X,Y) -> q(X).\nb: p(U,V) -> q(U).\n" in
  let d = the_diag Diagnostic.I031 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Subsumed_by { rule; by; substitution } ->
    Alcotest.(check int) "the later duplicate is flagged" 1 rule;
    Alcotest.(check int) "kept: the first" 0 by;
    Alcotest.(check bool) "witness substitution recorded" true
      (substitution <> [])
  | _ -> Alcotest.fail "expected a Subsumed_by witness");
  (* different body predicate: no subsumption *)
  Alcotest.(check int) "no false positive" 0
    (List.length (lint "a: p(X,Y) -> q(X).\nb: r(X) -> q(X).\n").Lint.diagnostics)

let test_i031_specialization () =
  (* b's body is a specialization of a's: a derives strictly more *)
  let report = lint "a: p(X,Y) -> q(X).\nb: p(X,X) -> q(X).\n" in
  let d = the_diag Diagnostic.I031 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Subsumed_by { rule; by; _ } ->
    Alcotest.(check int) "the specialization is flagged" 1 rule;
    Alcotest.(check int) "by the general rule" 0 by
  | _ -> Alcotest.fail "expected a Subsumed_by witness");
  (* existential heads: q(X,X) implies exists Z. q(X,Z), so the
     existential rule is the redundant one — direction matters *)
  let report2 = lint "a: p(X) -> q(X,Z).\nb: p(X) -> q(X,X).\n" in
  let d2 = the_diag Diagnostic.I031 report2 in
  (match d2.Diagnostic.witness with
  | Diagnostic.Subsumed_by { rule; by; _ } ->
    Alcotest.(check int) "existential head is subsumed" 0 rule;
    Alcotest.(check int) "by the ground head" 1 by
  | _ -> Alcotest.fail "expected a Subsumed_by witness");
  (* and the exposed checker agrees in both directions *)
  let rules = parse "a: p(X) -> q(X,Z).\nb: p(X) -> q(X,X).\n" in
  let a = List.nth rules 0 and b = List.nth rules 1 in
  Alcotest.(check bool) "b subsumes a" true (Option.is_some (Rule_lint.subsumes b a));
  Alcotest.(check bool) "a does not subsume b" true
    (Option.is_none (Rule_lint.subsumes a b))

(* ------------------------------------------------------------------ *)
(* I032 unused-existential                                             *)
(* ------------------------------------------------------------------ *)

let test_i032_write_only () =
  let report = lint "t: d(X) -> h(X, Y).\n" in
  let d = the_diag Diagnostic.I032 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Unused_existential { rule; var; positions } ->
    Alcotest.(check int) "rule t" 0 rule;
    Alcotest.(check string) "variable Y" "Y" var;
    Alcotest.(check (list (pair string int))) "lands at h[1]"
      [ ("h", 1) ] positions
  | _ -> Alcotest.fail "expected an Unused_existential witness");
  (* a consumer anywhere in the landing predicates silences it *)
  Alcotest.(check int) "consumed existential is clean" 0
    (List.length
       (lint "t: p(X) -> q(X,Y), r(Y).\ns: q(A,B) -> p(A).\n").Lint.diagnostics)

let test_i032_egd_consumer () =
  let report = lint "t2: p(X) -> r(X, Y).\np(a).\n" in
  let d = the_diag Diagnostic.I032 report in
  (match d.Diagnostic.witness with
  | Diagnostic.Unused_existential { var; _ } ->
    Alcotest.(check string) "variable Y" "Y" var
  | _ -> Alcotest.fail "expected an Unused_existential witness");
  (* an EGD body reads r: its key constraint consumes the nulls *)
  Alcotest.(check int) "EGD bodies count as consumers" 0
    (List.length
       (lint "t2: p(X) -> r(X, Y).\nr(X, Y), r(X, Z) -> Y = Z.\np(a).\n")
         .Lint.diagnostics)

(* ------------------------------------------------------------------ *)
(* The corpus stays clean                                              *)
(* ------------------------------------------------------------------ *)

let corpus_files () =
  let dir_candidates = [ "../data"; "data"; "../../data" ]
  and ex_candidates = [ "../examples"; "examples"; "../../examples" ] in
  let files_of candidates =
    match List.find_opt Sys.file_exists candidates with
    | None -> []
    | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".chase")
      |> List.map (Filename.concat dir)
      |> List.sort String.compare
  in
  files_of dir_candidates @ files_of ex_candidates

let read_path path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus_clean () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus found" true (List.length files >= 5);
  List.iter
    (fun path ->
      let report = lint (read_path path) in
      Alcotest.(check (list string))
        (path ^ " lints clean") []
        (List.map (fun d -> d.Diagnostic.message) report.Lint.diagnostics))
    files

(* And the deliberately divergent corpus is explained, not whitewashed:
   every diverging verdict carries its causal warning. *)
let test_corpus_explained () =
  let report =
    lint ~explain:[ Variant.Oblivious; Variant.Semi_oblivious ]
      (read_data "divergent_zoo.chase")
  in
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "zoo diverges" true (Verdict.is_diverging v))
    report.Lint.verdicts;
  Alcotest.(check bool) "a causal warning is attached" true
    (List.exists Diagnostic.is_warning report.Lint.diagnostics)

(* Explained under two variants, each verdict keeps its own warning,
   tagged with the variant it explains — even when the two witnesses
   are equal, as genealogy's o and so guard chains are. *)
let test_explain_names_variant () =
  let variants = [ Variant.Oblivious; Variant.Semi_oblivious ] in
  let report = lint ~explain:variants (read_data "genealogy.chase") in
  let w021 = diags_of_code Diagnostic.W021 report in
  Alcotest.(check int) "one W021 per diverging verdict" 2 (List.length w021);
  Alcotest.(check (list string)) "each names its variant"
    (List.map Variant.to_string variants)
    (List.filter_map
       (fun d -> Option.map Variant.to_string d.Diagnostic.variant)
       w021);
  (match w021 with
  | [ o; so ] ->
    Alcotest.(check string) "equal witnesses" o.Diagnostic.message
      so.Diagnostic.message;
    Alcotest.(check bool) "the human line names the variant" true
      (contains (Fmt.str "%a" (Diagnostic.pp ?file:None) so) "(semi-oblivious)");
    Alcotest.(check (option string)) "so does the JSON" (Some "semi-oblivious")
      (Option.bind
         (Jsonv.member "variant" (Diagnostic.to_json so))
         Jsonv.to_string_opt)
  | _ -> ());
  (* static findings carry no variant *)
  let plain = lint "p(X,X) -> q(X,Z).\n" in
  Alcotest.(check bool) "static diagnostics carry none" true
    (List.for_all (fun d -> d.Diagnostic.variant = None) plain.Lint.diagnostics)

(* ------------------------------------------------------------------ *)
(* Explainer/Decide agreement on seeded rule sets                       *)
(* ------------------------------------------------------------------ *)

let agreement ~variant ~seeds gen =
  List.iter
    (fun seed ->
      let rules = gen ~seed in
      let e = Explain.check ~variant (located rules) in
      let d = Decide.check ~variant rules in
      Alcotest.(check string)
        (Fmt.str "seed %d: explainer answer agrees with Decide" seed)
        (Verdict.answer_to_string (Verdict.answer d))
        (Verdict.answer_to_string (Verdict.answer e.Explain.verdict));
      Alcotest.(check string)
        (Fmt.str "seed %d: explainer procedure and evidence are Decide's" seed)
        (Verdict.to_string d)
        (Verdict.to_string e.Explain.verdict);
      let has_warning = List.exists Diagnostic.is_warning e.Explain.diagnostics in
      Alcotest.(check bool)
        (Fmt.str "seed %d: warning iff diverging" seed)
        (Verdict.is_diverging e.Explain.verdict)
        has_warning)
    (List.init seeds Fun.id)

let test_agreement_linear_so () =
  agreement ~variant:Variant.Semi_oblivious ~seeds:100 (fun ~seed ->
      Random_tgds.linear ~seed ())

let test_agreement_linear_o () =
  agreement ~variant:Variant.Oblivious ~seeds:30 (fun ~seed ->
      Random_tgds.linear ~seed ())

let test_agreement_guarded_so () =
  agreement ~variant:Variant.Semi_oblivious ~seeds:30 (fun ~seed ->
      Random_tgds.guarded ~seed ())

(* Explaining a verdict is deciding it once: the witness comes with the
   verdict, so Explain does no matching of its own. *)
let test_explain_costs_one_decision () =
  let rules = Families.guarded_divergent ~arity:3 in
  let variant = Variant.Semi_oblivious in
  let candidates f =
    let before = Hom.Stats.snapshot () in
    ignore (f ());
    (Hom.Stats.diff before (Hom.Stats.snapshot ())).Hom.Stats.candidates
  in
  let decided = candidates (fun () -> Decide.check ~variant rules) in
  let explained =
    candidates (fun () -> (Explain.check ~variant (located rules)).Explain.verdict)
  in
  Alcotest.(check bool) "the decision matches" true (decided > 0);
  Alcotest.(check int) "explain matches as much as one decision" decided
    explained

(* ------------------------------------------------------------------ *)
(* Fuzz: the lint battery never raises                                 *)
(* ------------------------------------------------------------------ *)

let never_raises src =
  match Parser.parse_located src with
  | Error _ -> true
  | Ok p -> (
    match Lint.analyze (Lint.of_program p) with
    | _ -> true
    | exception e ->
      QCheck.Test.fail_reportf "lint raised %s on %S" (Printexc.to_string e)
        src)

let fuzz_token_soup =
  qcheck ~count:500 "lint never raises on token soup"
    (QCheck.make ~print:(Fmt.str "%S") Test_parser_fuzz.token_soup_gen)
    never_raises

let fuzz_mutated_corpora =
  qcheck ~count:200 "lint never raises on mutated corpora"
    (QCheck.make ~print:(Fmt.str "%S") Test_parser_fuzz.mutated_corpus_gen)
    never_raises

let fuzz_random_rules =
  qcheck ~count:200 "lint never raises on seeded rule sets"
    (QCheck.make QCheck.Gen.small_nat) (fun seed ->
      let rules =
        if seed mod 2 = 0 then Random_tgds.guarded ~seed ()
        else Random_tgds.linear ~seed ()
      in
      match Lint.analyze { Lint.rules = located rules; egds = []; facts = [] } with
      | _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "lint raised %s on seed %d"
          (Printexc.to_string e) seed)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "E001 across rules" `Quick test_e001_across_rules;
    Alcotest.test_case "E001 rule vs fact" `Quick test_e001_rule_vs_fact;
    Alcotest.test_case "W010 ancestor join" `Quick test_w010_ancestor_join;
    Alcotest.test_case "W010 transitivity" `Quick test_w010_transitivity;
    Alcotest.test_case "W020 example2" `Quick test_w020_example2;
    Alcotest.test_case "W020 separator" `Quick test_w020_separator;
    Alcotest.test_case "W021 linear pump" `Quick test_w021_linear_pump;
    Alcotest.test_case "W021 guarded chain" `Quick test_w021_guarded_chain;
    Alcotest.test_case "I030/I033 simple" `Quick test_reachability_simple;
    Alcotest.test_case "I030/I033 propagation" `Quick test_reachability_propagates;
    Alcotest.test_case "I031 duplicate" `Quick test_i031_duplicate;
    Alcotest.test_case "I031 specialization" `Quick test_i031_specialization;
    Alcotest.test_case "I032 write-only" `Quick test_i032_write_only;
    Alcotest.test_case "I032 EGD consumer" `Quick test_i032_egd_consumer;
    Alcotest.test_case "corpus lints clean" `Quick test_corpus_clean;
    Alcotest.test_case "divergent corpus is explained" `Slow test_corpus_explained;
    Alcotest.test_case "agreement: linear, so, 100 seeds" `Slow
      test_agreement_linear_so;
    Alcotest.test_case "agreement: linear, o, 30 seeds" `Slow
      test_agreement_linear_o;
    Alcotest.test_case "agreement: guarded, so, 30 seeds" `Slow
      test_agreement_guarded_so;
    Alcotest.test_case "explaining costs one decision" `Quick
      test_explain_costs_one_decision;
    fuzz_token_soup;
    fuzz_mutated_corpora;
    fuzz_random_rules;
    Alcotest.test_case "explain diagnostics name their variant" `Quick
      test_explain_names_variant;
    Alcotest.test_case "W021 lasso" `Quick test_w021_lasso;
  ]

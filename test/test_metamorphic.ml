(** Metamorphic tests: semantics-preserving syntactic transformations of
    a rule set must not change termination verdicts, trigger counts, or
    (up to isomorphism) the chased instance — under either matcher.

    Transformations: predicate renaming, body-atom reordering, variable
    renaming.  Each is a bijective recoding the chase cannot observe, so
    any behavioural difference is a bug in an index, the planner, or a
    variant key. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let rename_atom_pred f a = Atom.of_list (f (Atom.pred a)) (Array.to_list (Atom.args a))

let map_rule fbody fhead r =
  Tgd.make_exn ~name:(Tgd.name r)
    ~body:(fbody (Tgd.body r))
    ~head:(fhead (Tgd.head r))
    ()

let rename_preds rules =
  let f p = "m_" ^ p in
  List.map
    (map_rule
       (List.map (rename_atom_pred f))
       (List.map (rename_atom_pred f)))
    rules

let reorder_bodies rules = List.map (map_rule List.rev Fun.id) rules

let rename_vars rules =
  let f = function Term.Var v -> Term.Var ("v_" ^ v) | t -> t in
  let on_atoms = List.map (Atom.map_terms f) in
  List.map (map_rule on_atoms on_atoms) rules

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let variants = [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ]

let crit_run ~variant ~budget rules =
  chase ~variant ~budget rules
    (Instance.to_list (Critical.of_rules ~standard:false rules))

(* [fact_map] recodes the original run's facts into the transformed
   vocabulary so instances can be compared; [Fun.id] when the
   transformation does not touch ground facts. *)
let check_transformation name transform fact_map rules =
  let rules' = transform rules in
  List.iter
    (fun m ->
      with_matcher m (fun () ->
          List.iter
            (fun variant ->
              let ctx =
                Fmt.str "%s %a %s" name Variant.pp variant
                  (match m with Hom.Planned -> "planned" | Hom.Naive -> "naive")
              in
              let r = crit_run ~variant ~budget:800 rules in
              let r' = crit_run ~variant ~budget:800 rules' in
              Alcotest.(check int)
                (ctx ^ ": triggers applied") r.Engine.triggers_applied
                r'.Engine.triggers_applied;
              Alcotest.(check int)
                (ctx ^ ": triggers skipped") r.Engine.triggers_skipped
                r'.Engine.triggers_skipped;
              Alcotest.(check bool)
                (ctx ^ ": same status") true
                (exhausted r = exhausted r');
              (* the engine canonicalises trigger order, so the recoded
                 runs are literally identical, nulls included — stronger
                 than the isomorphism the transformation guarantees *)
              Alcotest.(check (list atom_testable))
                (ctx ^ ": recoded instance")
                (List.sort Atom.compare
                   (List.map fact_map (Instance.to_list r.Engine.instance)))
                (sorted_facts r');
              if Instance.cardinal r.Engine.instance <= 40 then
                Alcotest.(check bool)
                  (ctx ^ ": isomorphic instances") true
                  (hom_equivalent
                     (Instance.of_list
                        (List.map fact_map
                           (Instance.to_list r.Engine.instance)))
                     r'.Engine.instance))
            variants))
    [ Hom.Naive; Hom.Planned ]

let check_verdicts name transform rules =
  let rules' = transform rules in
  List.iter
    (fun m ->
      with_matcher m (fun () ->
          List.iter
            (fun variant ->
              let verdict rs =
                Verdict.answer_to_string
                  (Verdict.answer
                     (Decide.check ~standard:false ~budget:1_500 ~variant rs))
              in
              Alcotest.(check string)
                (Fmt.str "%s: %a verdict" name Variant.pp variant)
                (verdict rules) (verdict rules'))
            [ Variant.Oblivious; Variant.Semi_oblivious ]))
    [ Hom.Naive; Hom.Planned ]

(* ------------------------------------------------------------------ *)
(* Corpora: named families plus seeded random sets                     *)
(* ------------------------------------------------------------------ *)

let corpus =
  [
    ("example1", Families.example1);
    ("separator", Families.separator);
    ("restricted-separator", Families.restricted_separator);
    ("guarded-divergent-2", Families.guarded_divergent ~arity:2);
    ("sl-cycle-benign-3", Families.sl_cycle_benign 3);
    ("wide-body-4", Families.wide_body ~width:4);
  ]
  @ List.init 10 (fun seed ->
        (Fmt.str "linear seed %d" seed, Random_tgds.linear ~seed ()))
  @ List.init 10 (fun seed ->
        (Fmt.str "guarded seed %d" seed, Random_tgds.guarded ~seed ()))

let on_corpus f () = List.iter (fun (name, rules) -> f name rules) corpus

let pred_renaming_runs =
  on_corpus (fun name rules ->
      check_transformation
        (name ^ "/rename-preds") rename_preds
        (rename_atom_pred (fun p -> "m_" ^ p))
        rules)

let body_reordering_runs =
  on_corpus (fun name rules ->
      check_transformation (name ^ "/reorder-body") reorder_bodies Fun.id rules)

let var_renaming_runs =
  on_corpus (fun name rules ->
      check_transformation (name ^ "/rename-vars") rename_vars Fun.id rules)

let pred_renaming_verdicts =
  on_corpus (fun name rules ->
      check_verdicts (name ^ "/rename-preds") rename_preds rules)

let body_reordering_verdicts =
  on_corpus (fun name rules ->
      check_verdicts (name ^ "/reorder-body") reorder_bodies rules)

let var_renaming_verdicts =
  on_corpus (fun name rules ->
      check_verdicts (name ^ "/rename-vars") rename_vars rules)

let suite =
  [
    Alcotest.test_case "predicate renaming preserves runs" `Quick
      pred_renaming_runs;
    Alcotest.test_case "body-atom reordering preserves runs" `Quick
      body_reordering_runs;
    Alcotest.test_case "variable renaming preserves runs" `Quick
      var_renaming_runs;
    Alcotest.test_case "predicate renaming preserves verdicts" `Slow
      pred_renaming_verdicts;
    Alcotest.test_case "body-atom reordering preserves verdicts" `Slow
      body_reordering_verdicts;
    Alcotest.test_case "variable renaming preserves verdicts" `Slow
      var_renaming_verdicts;
  ]

(** Differential oracle: the planned matcher against the naive reference,
    and the relevance-pruned run against the unpruned one.

    The engine canonicalises trigger discovery (each discovery event's
    homomorphisms are sorted before enqueueing), so a chase run depends
    only on the substitution {e sets} the matcher produces — naive,
    planned and relevance-pruned runs must therefore be literally
    identical, null stamps and all, not merely isomorphic (pruning only
    skips discovery events that provably yield no substitutions).  This
    suite pins that three ways on ~200 seeded random rule sets across
    generator profiles (varying arity, repeated body variables, constants
    in bodies), for every chase variant, and on the end-to-end [Decide]
    verdicts for a subset. *)

open Chase
open Test_util

let with_matcher m f =
  let saved = Hom.matcher () in
  Hom.set_matcher m;
  Fun.protect ~finally:(fun () -> Hom.set_matcher saved) f

let with_pruning_off f =
  Relevance.force_disable true;
  Fun.protect ~finally:(fun () -> Relevance.force_disable false) f

(** Run the critical-instance chase under both matchers, plus the planned
    matcher with the trigger-relevance index disabled. *)
let run_all ~variant ~budget rules =
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let go m = with_matcher m (fun () -> chase ~variant ~budget rules db) in
  (go Hom.Naive, go Hom.Planned, with_pruning_off (fun () -> go Hom.Planned))

let check_identical ctx (rn : Engine.result) (rp : Engine.result) =
  Alcotest.(check (list atom_testable))
    (ctx ^ ": final instance") (sorted_facts rn) (sorted_facts rp);
  Alcotest.(check int)
    (ctx ^ ": triggers applied") rn.Engine.triggers_applied
    rp.Engine.triggers_applied;
  Alcotest.(check int)
    (ctx ^ ": triggers skipped") rn.Engine.triggers_skipped
    rp.Engine.triggers_skipped;
  Alcotest.(check int)
    (ctx ^ ": atoms created") rn.Engine.atoms_created rp.Engine.atoms_created;
  Alcotest.(check int)
    (ctx ^ ": nulls created") rn.Engine.nulls_created rp.Engine.nulls_created;
  Alcotest.(check bool)
    (ctx ^ ": same status") true
    (Engine.exhausted rn = Engine.exhausted rp);
  (* Isomorphism is implied by equality; still exercise the hom check on
     small instances as an independent witness. *)
  if Instance.cardinal rn.Engine.instance <= 40 then
    Alcotest.(check bool)
      (ctx ^ ": hom-equivalent") true
      (hom_equivalent rn.Engine.instance rp.Engine.instance)

let variants = [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ]

let differential_family name gen ~seeds ~budget () =
  for seed = 0 to seeds - 1 do
    let rules = gen ~seed in
    List.iter
      (fun variant ->
        let rn, rp, ru = run_all ~variant ~budget rules in
        let ctx which =
          Fmt.str "%s seed %d %a [%s]" name seed Variant.pp variant which
        in
        check_identical (ctx "planned") rn rp;
        check_identical (ctx "unpruned") rn ru)
      variants
  done

let open_profile = { Random_tgds.default_profile with simple = false }

let families =
  [
    ( "simple-linear", 40, 800,
      fun ~seed -> Random_tgds.simple_linear ~seed () );
    ("linear", 40, 800, fun ~seed -> Random_tgds.linear ~seed ());
    ( "linear-wide", 30, 600,
      fun ~seed ->
        Random_tgds.linear ~seed
          ~profile:
            { open_profile with Random_tgds.max_arity = 4; n_rules = 4 }
          () );
    ( "linear-constants", 30, 600,
      fun ~seed ->
        Random_tgds.linear ~seed
          ~profile:{ open_profile with Random_tgds.constant_bias = 0.3 }
          () );
    ("guarded", 40, 600, fun ~seed -> Random_tgds.guarded ~seed ());
    ( "guarded-constants", 20, 500,
      fun ~seed ->
        Random_tgds.guarded ~seed
          ~profile:
            {
              open_profile with
              Random_tgds.constant_bias = 0.25;
              max_body = 3;
              max_arity = 4;
            }
          () );
  ]

(* The end-to-end decision procedure must give the same verdict under
   either matcher: its budgeted chases are deterministic per matcher and
   matcher-independent by the identity above. *)
let decide_agreement () =
  let check_verdicts name rules =
    let verdict m =
      with_matcher m (fun () ->
          Verdict.answer_to_string
            (Verdict.answer
               (Decide.check ~standard:false ~budget:2_000
                  ~variant:Variant.Semi_oblivious rules)))
    in
    Alcotest.(check string) name (verdict Hom.Naive) (verdict Hom.Planned)
  in
  for seed = 0 to 24 do
    check_verdicts
      (Fmt.str "linear seed %d" seed)
      (Random_tgds.linear ~seed ());
    check_verdicts
      (Fmt.str "guarded seed %d" seed)
      (Random_tgds.guarded ~seed ())
  done

(* A handcrafted divergent set exercises the exhausted path explicitly:
   the budget-truncated prefixes must agree too. *)
let exhausted_prefixes_agree () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  List.iter
    (fun variant ->
      let rn, rp, ru = run_all ~variant ~budget:300 rules in
      (* the restricted chase terminates here (the critical instance
         already satisfies both heads); o and so exhaust the budget *)
      if variant <> Variant.Restricted then
        Alcotest.(check bool)
          (Fmt.str "%a: exhausted" Variant.pp variant)
          true (exhausted rn);
      check_identical (Fmt.str "divergent %a" Variant.pp variant) rn rp;
      check_identical (Fmt.str "divergent %a unpruned" Variant.pp variant)
        rn ru)
    variants

let suite =
  List.map
    (fun (name, seeds, budget, gen) ->
      Alcotest.test_case
        (Fmt.str "naive = planned = unpruned: %s (%d seeds, all variants)"
           name seeds)
        `Slow
        (differential_family name gen ~seeds ~budget))
    families
  @ [
      Alcotest.test_case
        "naive = planned: Decide verdicts (50 sets)" `Slow
        decide_agreement;
      Alcotest.test_case
        "naive = planned = unpruned: budget-truncated prefixes" `Quick
        exhausted_prefixes_agree;
    ]

(** Differential oracle: the planned matcher against the naive reference.

    The engine canonicalises trigger discovery (each discovery event's
    homomorphisms are sorted before enqueueing), so a chase run depends
    only on the substitution {e sets} the matcher produces — naive and
    planned runs must therefore be literally identical, null stamps and
    all, not merely isomorphic.  This suite pins that on ~200 seeded
    random rule sets across generator profiles (varying arity, repeated
    body variables, constants in bodies) and on every shipped program,
    for every chase variant, and on the end-to-end [Decide] verdicts for
    a subset.  A second verdict leg checks [Decide] against Theorem 2's
    procedure on simple linear sets with constants, which Theorem 1 does
    not cover.

    Equality cannot catch a fault both matchers share, such as the
    engine's delta sweep skipping a rule whose body mentions the added
    fact.  So every run must also replay its provenance, and every
    terminated run must be a model of its rules. *)

open Chase
open Test_util

let critical rules = Instance.to_list (Critical.of_rules ~standard:false rules)

(** Chase [db] under both matchers: (naive, planned). *)
let run_all ~variant ~budget rules db =
  let go m = with_matcher m (fun () -> chase ~variant ~budget rules db) in
  (go Hom.Naive, go Hom.Planned)

let check_identical ctx (rn : Engine.result) (rp : Engine.result) =
  Alcotest.(check (list atom_testable))
    (ctx ^ ": final instance") (sorted_facts rn) (sorted_facts rp);
  Alcotest.(check int)
    (ctx ^ ": triggers applied") rn.Engine.triggers_applied
    rp.Engine.triggers_applied;
  Alcotest.(check (list (pair string int)))
    (ctx ^ ": per-rule firings") rn.Engine.rule_firings rp.Engine.rule_firings;
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

(* One run stands for both legs: [check_identical] has made them equal. *)
let check_sound ctx rules db (r : Engine.result) =
  (match Engine.check_provenance r ~db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: provenance: %s" ctx msg);
  if not (exhausted r) then
    Alcotest.(check bool)
      (ctx ^ ": terminated run is a model") true
      (Engine.is_model rules r.Engine.instance)

let variants = [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ]

let differential_family name gen ~seeds ~budget () =
  for seed = 0 to seeds - 1 do
    let rules = gen ~seed in
    let db = critical rules in
    List.iter
      (fun variant ->
        let rn, rp = run_all ~variant ~budget rules db in
        let ctx = Fmt.str "%s seed %d %a" name seed Variant.pp variant in
        check_identical ctx rn rp;
        check_sound ctx rules db rp)
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

let answer v = Verdict.answer_to_string (Verdict.answer v)

(* One verdict leg: on every case, the verdict under test must equal the
   reference verdict.  A case is (context, reference, under test). *)
let verdicts_agree cases () =
  List.iter
    (fun (ctx, reference, under_test) ->
      Alcotest.(check string) ctx (reference ()) (under_test ()))
    (cases ())

(* The end-to-end decision procedure must give the same verdict under
   either matcher: its budgeted chases are deterministic per matcher and
   matcher-independent by the identity above. *)
let matcher_cases () =
  List.concat_map
    (fun seed ->
      List.map
        (fun (family, rules) ->
          let verdict m () =
            with_matcher m (fun () ->
                answer
                  (Decide.check ~standard:false ~budget:2_000
                     ~variant:Variant.Semi_oblivious rules))
          in
          (Fmt.str "%s seed %d" family seed, verdict Hom.Naive, verdict Hom.Planned))
        [
          ("linear", Random_tgds.linear ~seed ());
          ("guarded", Random_tgds.guarded ~seed ());
        ])
    (List.init 25 Fun.id)

(* Theorem 1 covers constant-free rules only.  A simple linear set that
   mentions constants is a linear set, so Decide's verdict must be the
   one Theorem 2's procedure gives for it. *)
let constant_cases () =
  let profile = { open_profile with Random_tgds.constant_bias = 0.3 } in
  List.concat_map
    (fun seed ->
      let rules = Random_tgds.simple_linear ~seed ~profile () in
      List.map
        (fun variant ->
          ( Fmt.str "simple-linear-constants seed %d %a" seed Variant.pp variant,
            (fun () -> answer (Linear.check ~standard:false ~variant rules)),
            fun () -> answer (Decide.check ~standard:false ~variant rules) ))
        [ Variant.Oblivious; Variant.Semi_oblivious ])
    (List.init 300 Fun.id)

(* A handcrafted divergent set exercises the exhausted path explicitly:
   the budget-truncated prefixes must agree too. *)
let exhausted_prefixes_agree () =
  let rules = parse "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)." in
  let db = critical rules in
  List.iter
    (fun variant ->
      let rn, rp = run_all ~variant ~budget:300 rules db in
      (* the restricted chase terminates here (the critical instance
         already satisfies both heads); o and so exhaust the budget *)
      if variant <> Variant.Restricted then
        Alcotest.(check bool)
          (Fmt.str "%a: exhausted" Variant.pp variant)
          true (exhausted rn);
      let ctx = Fmt.str "divergent %a" Variant.pp variant in
      check_identical ctx rn rp;
      check_sound ctx rules db rp)
    variants

(* Every shipped program's TGDs, chased from the program's own facts and
   from its critical instance. *)
let shipped_programs =
  [
    ("data", "company_mapping.chase");
    ("data", "divergent_zoo.chase");
    ("data", "genealogy.chase");
    ("data", "university.chase");
    ("examples", "bibliography.chase");
  ]

let shipped_program dir file () =
  let p =
    match Parser.parse_program_full (read_data ~dir file) with
    | Ok p -> p
    | Error msg -> Alcotest.failf "%s: %s" file msg
  in
  let rules = p.Parser.tgds in
  List.iter
    (fun (which, db) ->
      List.iter
        (fun variant ->
          let rn, rp = run_all ~variant ~budget:2_000 rules db in
          let ctx = Fmt.str "%s %s %a" file which Variant.pp variant in
          check_identical ctx rn rp;
          check_sound ctx rules db rp)
        variants)
    [ ("facts", p.Parser.facts); ("critical instance", critical rules) ]

let suite =
  List.map
    (fun (name, seeds, budget, gen) ->
      Alcotest.test_case
        (Fmt.str "naive = planned: %s (%d seeds, all variants)" name seeds)
        `Slow
        (differential_family name gen ~seeds ~budget))
    families
  @ [
      Alcotest.test_case
        "naive = planned: Decide verdicts (50 sets)" `Slow
        (verdicts_agree matcher_cases);
      Alcotest.test_case
        "naive = planned: budget-truncated prefixes" `Quick
        exhausted_prefixes_agree;
    ]
  @ List.map
      (fun (dir, file) ->
        Alcotest.test_case
          (Fmt.str "naive = planned: %s/%s (all variants)" dir file)
          `Quick (shipped_program dir file))
      shipped_programs
  @ [
      Alcotest.test_case
        "Decide = Linear.check: simple linear sets with constants (300 \
         seeds, o and so)"
        `Quick
        (verdicts_agree constant_cases);
    ]

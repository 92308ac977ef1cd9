(** Tests for the chase engine: variant semantics, model property,
    provenance, budgets, the critical instance. *)

open Chase
open Test_util

(* ------------- basic chase behaviour ------------- *)

let test_example1_shape () =
  (* person(bob) under Example 1, bounded: an initial segment of the
     infinite chase — hasFather/person alternating *)
  let result =
    chase ~budget:10 Families.example1 (parse_facts "person(bob).")
  in
  Alcotest.(check bool) "budget hit" true (exhausted result);
  let facts = sorted_facts result in
  Alcotest.(check bool) "has father fact" true
    (List.exists (fun a -> Atom.pred a = "hasFather") facts);
  Alcotest.(check int) "10 triggers → 21 facts" 21 (List.length facts)

let test_terminating_chase_is_model () =
  let rules =
    parse "emp(X) -> dept(X, Z), mgr(Z). mgr(X) -> emp2(X)."
  in
  let result = chase rules (parse_facts "emp(alice). emp(bob).") in
  Alcotest.(check bool) "terminated" true (result.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "result is a model" true
    (Engine.is_model rules result.Engine.instance)

let test_oblivious_vs_semioblivious_counts () =
  (* p(a,b), p(a,c) under p(X,Y) → ∃Z q(X,Z): oblivious fires twice
     (two homs), semi-oblivious once (same frontier X=a). *)
  let rules = parse "p(X, Y) -> q(X, Z)." in
  let db = parse_facts "p(a, b). p(a, c)." in
  let ob = chase ~variant:Variant.Oblivious rules db in
  let so = chase ~variant:Variant.Semi_oblivious rules db in
  Alcotest.(check int) "oblivious fires per hom" 2 ob.Engine.triggers_applied;
  Alcotest.(check int) "semi-oblivious fires per frontier" 1 so.Engine.triggers_applied;
  Alcotest.(check int) "oblivious two nulls" 2 ob.Engine.nulls_created;
  Alcotest.(check int) "semi-oblivious one null" 1 so.Engine.nulls_created

let test_restricted_blocks_satisfied () =
  (* q(a,b) already satisfies the head for X=a: restricted chase does
     nothing, oblivious still fires. *)
  let rules = parse "p(X) -> q(X, Z)." in
  let db = parse_facts "p(a). q(a, b)." in
  let ob = chase ~variant:Variant.Oblivious rules db in
  let re = chase ~variant:Variant.Restricted rules db in
  Alcotest.(check int) "oblivious fires" 1 ob.Engine.triggers_applied;
  Alcotest.(check int) "restricted skips" 0 re.Engine.triggers_applied;
  Alcotest.(check int) "restricted recorded the skip" 1 re.Engine.triggers_skipped

let test_restricted_terminates_on_separator () =
  (* e(X,Y) → ∃Z e(Y,X)… the symmetric closure rule: restricted chase
     terminates (head satisfied by the produced flip), o/so diverge. *)
  let rules = Families.restricted_separator in
  let db = parse_facts "e(a, b)." in
  Alcotest.(check bool) "restricted terminates" true
    ((chase ~variant:Variant.Restricted rules db).Engine.status = Engine.Terminated);
  Alcotest.(check bool) "oblivious diverges" true
    (exhausted (chase ~variant:Variant.Oblivious ~budget:300 rules db));
  (* The §4 preview (EXPERIMENTS.md E8): each variant chased on the
     generic instance.  The restricted separator is the only family
     whose restricted chase closes while both (semi-)oblivious chases
     run on. *)
  let cell rules variant =
    let generic = Instance.to_list (Critical.generic_of_rules rules) in
    if exhausted (chase ~variant ~budget:2_000 rules generic) then "DIV" else "term"
  in
  List.iter
    (fun (name, rules, expected) ->
      Alcotest.(check (list string))
        (name ^ ": o, so, restricted on the generic instance")
        expected
        (List.map (cell rules)
           [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ]))
    [
      ("restricted-separator", Families.restricted_separator, [ "DIV"; "DIV"; "term" ]);
      ("example2", Families.example2, [ "DIV"; "DIV"; "DIV" ]);
      ("single-head-chain-4", Families.single_head_chain 4, [ "term"; "term"; "term" ]);
      ("sl-cycle-4", Families.sl_cycle 4, [ "DIV"; "DIV"; "DIV" ]);
      ("separator", Families.separator, [ "DIV"; "term"; "term" ]);
    ]

let test_fairness_breadth () =
  (* Two independent generators: FIFO must advance both, not starve one. *)
  let rules = parse "a(X) -> a(Z). b(X) -> b(Z)." in
  let result = chase ~budget:100 rules (parse_facts "a(s). b(s).") in
  let count p =
    List.length (Instance.atoms_of_pred result.Engine.instance p)
  in
  Alcotest.(check bool) "both families grow" true (count "a" > 10 && count "b" > 10)

let test_multi_head_shares_null () =
  let rules = parse "p(X) -> q(X, Z), r(Z)." in
  let result = chase rules (parse_facts "p(a).") in
  let q = List.hd (Instance.atoms_of_pred result.Engine.instance "q") in
  let r = List.hd (Instance.atoms_of_pred result.Engine.instance "r") in
  check_term "head atoms share the null" (Atom.arg q 1) (Atom.arg r 0)

let test_set_semantics_dedup () =
  (* the full rule derives an already-present fact: no growth *)
  let rules = parse "p(X, Y) -> p(Y, X)." in
  let result = chase rules (parse_facts "p(a, a).") in
  Alcotest.(check int) "no new facts" 0 result.Engine.atoms_created;
  Alcotest.(check bool) "terminated" true (result.Engine.status = Engine.Terminated)

(* ------------- provenance ------------- *)

let test_provenance_depths () =
  let rules = parse "p(X) -> q(X). q(X) -> r(X)." in
  let result = chase rules (parse_facts "p(a).") in
  Alcotest.(check int) "q at depth 1" 1 (Engine.depth_of result (fact "q(a)"));
  Alcotest.(check int) "r at depth 2" 2 (Engine.depth_of result (fact "r(a)"));
  Alcotest.(check int) "db fact at depth 0" 0 (Engine.depth_of result (fact "p(a)"));
  Alcotest.(check int) "max depth" 2 result.Engine.max_depth

let test_provenance_parents_and_guard () =
  let rules = parse "r(X, Y), m(Y) -> s(Y, Z)." in
  let result = chase rules (parse_facts "r(a, b). m(b).") in
  let s_fact = List.hd (Instance.atoms_of_pred result.Engine.instance "s") in
  match Engine.derivation result s_fact with
  | None -> Alcotest.fail "no provenance record"
  | Some d ->
    Alcotest.(check int) "two parents" 2 (List.length (Derivation.parents d));
    (match Derivation.guard_parent d with
    | Some g -> Alcotest.(check string) "guard image is r" "r" (Atom.pred g)
    | None -> Alcotest.fail "expected guard image");
    Alcotest.(check int) "one null created" 1 (List.length (Derivation.created_nulls d))

(* Derivation records are built only for facts that are actually new;
   each must still be exact: it replays, its guard image is the
   [Classify.guard_of] image under its homomorphism, and the hook sees the
   very homomorphism and nulls recorded for the facts the step created,
   which share one physical record (two facts per w1 step). *)
let test_derivations_exact () =
  let sets =
    [
      ( "guarded-divergent-3",
        Families.guarded_divergent ~arity:3,
        "r(a, b, c). m(c)." );
      ( "w1",
        parse "w1: p(X, Y), q(Y, Z) -> p(Y, W), q(W, X).",
        "p(a, b). q(b, c)." );
    ]
  in
  List.iter
    (fun (name, rules, facts) ->
      let db = parse_facts facts in
      List.iter
        (fun variant ->
          let ctx = Fmt.str "%s/%a" name Variant.pp variant in
          let hooked = ref [] in
          let on_trigger ~step ~rule_index:_ ~depth:_ ~created_nulls _ hom added =
            hooked := (step, hom, created_nulls, added) :: !hooked
          in
          let result =
            Engine.run
              ~config:{ Engine.variant; limits = Limits.of_budget 2_000 }
              ~on_trigger rules db
          in
          (match Engine.check_provenance result ~db with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" ctx msg);
          Alcotest.(check bool) (ctx ^ ": budget reached") true
            (result.Engine.triggers_applied = 2_000);
          Instance.iter
            (fun a ->
              Option.iter
                (fun d ->
                  let want =
                    Option.map
                      (Subst.apply_atom (Derivation.hom d))
                      (Classify.guard_of (Derivation.rule d))
                  in
                  if not (Option.equal Atom.equal want (Derivation.guard_parent d))
                  then Alcotest.failf "%s: wrong guard parent of %a" ctx Atom.pp a)
                (Engine.derivation result a))
            result.Engine.instance;
          List.iter
            (fun (step, hom, created, added) ->
              let first = Option.bind (List.nth_opt added 0) (Engine.derivation result) in
              List.iter
                (fun a ->
                  match (Engine.derivation result a, first) with
                  | Some d, Some d0
                    when d == d0
                         && Derivation.step d = step
                         && Subst.equal hom (Derivation.hom d)
                         && Derivation.created_nulls d = created -> ()
                  | _ ->
                    Alcotest.failf "%s: step %d's hook is not the shared record of %a"
                      ctx step Atom.pp a)
                added)
            !hooked;
          Alcotest.(check int) (ctx ^ ": every created fact seen by the hook")
            result.Engine.atoms_created
            (List.fold_left (fun n (_, _, _, added) -> n + List.length added) 0 !hooked);
          Alcotest.(check bool) (ctx ^ ": no record for a database fact") true
            (Engine.derivation result (List.hd db) = None);
          Alcotest.(check bool) (ctx ^ ": no record for an absent atom") true
            (Engine.derivation result (fact "p(absent, absent)") = None))
        [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ])
    sets

(* The growth path: budget runs over crit(Σ) that invent a null per
   trigger, as Decide's guarded and simulation procedures run them.  The
   counts and an MD5 of the sorted instance were taken before derivation
   records became one shared slot record per application and before the
   per-term index was removed; the instance must not move. *)
let w1 = "w1: p(X, Y), q(Y, Z) -> p(Y, W), q(W, X)."

let test_growth_path_pinned () =
  List.iter
    (fun (name, rules, variant, facts, depth, digest) ->
      let db = Instance.to_list (Critical.of_rules ~standard:true rules) in
      let r = chase ~variant ~budget:20_000 rules db in
      let ctx what = Fmt.str "%s/%a: %s" name Variant.pp variant what in
      Alcotest.(check int) (ctx "triggers") 20_000 r.Engine.triggers_applied;
      Alcotest.(check int) (ctx "facts") facts (Instance.cardinal r.Engine.instance);
      Alcotest.(check int) (ctx "nulls") 20_000 r.Engine.nulls_created;
      Alcotest.(check int) (ctx "max depth") depth r.Engine.max_depth;
      (match Engine.check_provenance r ~db with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s" (ctx msg));
      Alcotest.(check string) (ctx "instance") digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map (Fmt.to_to_string Atom.pp) (Instance.to_sorted_list r.Engine.instance))))))
    [
      ("w1", parse w1, Variant.Oblivious, 40_018, 741, "8544e85c070ffbcae0db7b3bf01ff26c");
      ("w1", parse w1, Variant.Semi_oblivious, 40_018, 2_223, "9936f60c754acf3a1708c2270824ae5c");
      ( "guarded-divergent-3",
        Families.guarded_divergent ~arity:3,
        Variant.Oblivious,
        40_030,
        741,
        "4cea34b9aef81ee315ac9fdc2fb9099c" );
      ( "guarded-divergent-3",
        Families.guarded_divergent ~arity:3,
        Variant.Semi_oblivious,
        40_030,
        2_223,
        "2e60e6841dc03885bcad69ce1544cf5a" );
    ]

(* The provenance checker rejects a hand-built record that breaks any one
   of its checks.  Parents are read off the same slots as the
   homomorphism, so they are the body image by construction; what can
   break is a missing record, a missing or underived parent, a slot
   array of the wrong length, an existential slot that holds no fresh
   null, and a head that does not reproduce the fact. *)
let test_check_provenance_rejects () =
  let null n = Term.Null n and c s = Term.Const s in
  let z = Trigger.compile 0 (parse_rule "z: p(X, Y) -> q(Y, Z).") in
  let z2 = Trigger.compile 0 (parse_rule "z2: p(X, Y) -> q(Y, Z, W).") in
  let q args = Atom.of_list "q" args in
  let record rule vals = Some { Derivation.rule; vals = Array.of_list vals; depth = 1; step = 1 } in
  (* the instance [db] plus [derived], each fact with the record given *)
  let hand_built db derived =
    let r = Engine.run [] db in
    List.iter (fun (a, _) -> ignore (Instance.add r.Engine.instance a)) derived;
    let derivations = Array.make (Instance.cardinal r.Engine.instance) None in
    List.iter (fun (a, d) -> derivations.(Instance.id_of r.Engine.instance a) <- d) derived;
    Engine.check_provenance { r with Engine.derivations } ~db
  in
  let p_ab = parse_facts "p(a, b)." in
  let q_b1 = q [ c "b"; null 1 ] in
  (match hand_built p_ab [ (q_b1, record z [ c "a"; c "b"; null 1 ]) ] with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "a sound record is rejected: %s" msg);
  List.iter
    (fun (what, db, derived, wants) ->
      match hand_built db derived with
      | Ok () -> Alcotest.failf "%s: accepted" what
      | Error msg ->
        if not (List.exists (contains msg) wants) then
          Alcotest.failf "%s: wrong complaint: %s" what msg)
    [
      ("no record", p_ab, [ (q_b1, None) ], [ "neither a database fact nor derived" ]);
      ( "missing parent",
        p_ab,
        [ (q_b1, record z [ c "c"; c "b"; null 1 ]) ],
        [ "missing from the instance" ] );
      (* an underived parent is itself a fact with no record *)
      ( "underived parent",
        p_ab,
        [ (fact "p(c, b)", None); (q_b1, record z [ c "c"; c "b"; null 1 ]) ],
        [ "is underived"; "neither a database fact nor derived" ] );
      ("short slot array", p_ab, [ (q_b1, record z [ c "a"; c "b" ]) ], [ "binds 2 slots" ]);
      ( "null of a parent",
        [ Atom.of_list "p" [ null 1; c "b" ] ],
        [ (q_b1, record z [ null 1; c "b"; null 1 ]) ],
        [ "not a fresh null" ] );
      ( "constant in an existential slot",
        p_ab,
        [ (q [ c "b"; c "c" ], record z [ c "a"; c "b"; c "c" ]) ],
        [ "not a fresh null" ] );
      ( "one null for two existentials",
        p_ab,
        [ (q [ c "b"; null 1; null 1 ], record z2 [ c "a"; c "b"; null 1; null 1 ]) ],
        [ "not a fresh null" ] );
      ( "head does not reproduce",
        p_ab,
        [ (q_b1, record z [ c "a"; c "b"; null 2 ]) ],
        [ "not produced by its recorded trigger" ] );
    ]

(* The matcher counters are plain refs.  The service runs chases on
   worker systhreads of one domain, which never switch inside an
   increment, so concurrent runs must lose no counts: four copies of a
   budgeted chase running at once cost exactly four solo runs. *)
let test_stats_exact_under_threads () =
  let rules = Families.guarded_divergent ~arity:3 in
  let db = parse_facts "r(a, b, c). m(c)." in
  let run () = chase ~budget:10_000 rules db in
  let measure f =
    let h0 = Hom.Stats.snapshot () and p0 = Plan.Stats.snapshot () in
    f ();
    (Hom.Stats.diff h0 (Hom.Stats.snapshot ()),
     Plan.Stats.diff p0 (Plan.Stats.snapshot ()))
  in
  let solo = ref 0 in
  let h1, p1 = measure (fun () -> solo := (run ()).Engine.triggers_applied) in
  let n = 4 in
  (* a barrier, so all four chases are live before any of them starts *)
  let m = Mutex.create () and ready = Condition.create () and arrived = ref 0 in
  let applied = Array.make n 0 in
  let worker k =
    Mutex.lock m;
    incr arrived;
    if !arrived = n then Condition.broadcast ready;
    while !arrived < n do Condition.wait ready m done;
    Mutex.unlock m;
    applied.(k) <- (run ()).Engine.triggers_applied
  in
  let hn, pn =
    measure (fun () ->
        List.iter Thread.join (List.init n (Thread.create worker)))
  in
  Array.iter (Alcotest.(check int) "same run on every thread" !solo) applied;
  let check what one all = Alcotest.(check int) what (n * one) all in
  check "hom probes" h1.Hom.Stats.probes hn.Hom.Stats.probes;
  check "hom full scans" h1.Hom.Stats.full_scans hn.Hom.Stats.full_scans;
  check "hom candidates" h1.Hom.Stats.candidates hn.Hom.Stats.candidates;
  check "hom matches" h1.Hom.Stats.matches hn.Hom.Stats.matches;
  check "planned probe cost" h1.Hom.Stats.planned_probe_cost
    hn.Hom.Stats.planned_probe_cost;
  check "naive probe cost" h1.Hom.Stats.naive_probe_cost
    hn.Hom.Stats.naive_probe_cost;
  check "plans" p1.Plan.Stats.plans pn.Plan.Stats.plans;
  check "estimates" p1.Plan.Stats.estimates pn.Plan.Stats.estimates

(* A trigger's depth is fixed when the trigger is found, from the
   depths of the facts its body matched.  It must equal what the hook
   can recompute: 1 + the deepest fact of the body image, database facts
   at depth 0, every added fact at its step's depth. *)
let trigger_depth_is_body_depth =
  qcheck ~count:60 "trigger depth = 1 + max depth of the body image (o, so)"
    QCheck.small_nat (fun seed ->
      let rules =
        if seed mod 2 = 0 then Random_tgds.guarded ~seed ()
        else Random_tgds.linear ~seed ()
      in
      let db = Instance.to_list (Critical.of_rules rules) in
      List.for_all
        (fun variant ->
          let depth_of = Atom.Tbl.create 64 in
          List.iter (fun a -> Atom.Tbl.replace depth_of a 0) db;
          let ok = ref true in
          let on_trigger ~step:_ ~rule_index:_ ~depth ~created_nulls:_ rule hom added =
            let body = Subst.apply_atoms hom (Tgd.body rule) in
            let deepest =
              List.fold_left
                (fun d a ->
                  match Atom.Tbl.find_opt depth_of a with
                  | Some k -> max d k
                  | None ->
                    ok := false;
                    d)
                0 body
            in
            if depth <> 1 + deepest then ok := false;
            List.iter (fun a -> Atom.Tbl.replace depth_of a depth) added
          in
          let result =
            Engine.run
              ~config:{ Engine.variant; limits = Limits.of_budget 500 }
              ~on_trigger rules db
          in
          !ok && result.Engine.triggers_applied > 0)
        [ Variant.Oblivious; Variant.Semi_oblivious ])

(* The transitive closure of a directed 30-cycle, the benchmark's
   chase-closure job: every trigger is a homomorphism the oblivious
   chase must apply, so its work is fixed — 27,000 triggers for 900
   facts — and so are the matcher's counts for finding them. *)
let test_closure_work_pinned () =
  let n = 30 in
  let node i = Term.Const (Fmt.str "v%d" i) in
  let db = List.init n (fun i -> Atom.of_list "e" [ node i; node ((i + 1) mod n) ]) in
  let rules = parse "tc: e(X, Y), e(Y, Z) -> e(X, Z)." in
  let h0 = Hom.Stats.snapshot () in
  let result = chase ~budget:100_000 rules db in
  let h = Hom.Stats.diff h0 (Hom.Stats.snapshot ()) in
  Alcotest.(check bool) "terminated" true (result.Engine.status = Engine.Terminated);
  Alcotest.(check int) "triggers" 27_000 result.Engine.triggers_applied;
  Alcotest.(check int) "facts" 900 (Instance.cardinal result.Engine.instance);
  Alcotest.(check int) "candidates" 27_060 h.Hom.Stats.candidates;
  Alcotest.(check int) "probes" 1_770 h.Hom.Stats.probes;
  Alcotest.(check int) "matches" 27_000 h.Hom.Stats.matches

(* Multi-atom heads: one application adds two facts, and a homomorphism
   whose image holds both is found once through each (p(a, b), p(b, a)
   for m2; t(X, n), t(n, Y) for m4), but must be applied once.  The
   counts and a digest of the whole trigger sequence (step, rule, depth,
   homomorphism, nulls, added facts) are those of the run-wide dedup the
   engine had before its seen-set was scoped to one application under o
   and r; without the dedup o applies 63 triggers and r skips 13. *)
let test_multi_head_sequence_pinned () =
  let rules =
    parse
      "m1: e(X, Y) -> p(X, Y), p(Y, X).\n\
       m2: p(X, Y), p(Y, X) -> s(X, Y).\n\
       m3: s(X, Y) -> t(X, Z), t(Z, Y).\n\
       m4: t(X, Y), t(Y, Z) -> u(X, Z)."
  in
  let db = parse_facts "e(a, b). e(b, c). e(c, a). e(a, a). t(a, a)." in
  List.iter
    (fun (variant, applied, skipped, facts, digest) ->
      let lines = ref [] in
      let on_trigger ~step ~rule_index ~depth ~created_nulls _ hom added =
        lines :=
          Fmt.str "%d %d %d %s [%s] -> %a" step rule_index depth (Subst.to_string hom)
            (String.concat "," (List.map string_of_int created_nulls))
            Fmt.(list ~sep:comma Atom.pp)
            added
          :: !lines
      in
      let r =
        Engine.run ~config:{ Engine.variant; limits = Limits.of_budget 1000 } ~on_trigger rules db
      in
      let name what = Fmt.str "%s %s" (Variant.to_string variant) what in
      Alcotest.(check int) (name "applied") applied r.Engine.triggers_applied;
      Alcotest.(check int) (name "skipped") skipped r.Engine.triggers_skipped;
      Alcotest.(check int) (name "facts") facts (Instance.cardinal r.Engine.instance);
      Alcotest.(check string) (name "sequence") digest
        (Digest.to_hex (Digest.string (String.concat "\n" (List.rev !lines)))))
    [
      (Variant.Oblivious, 49, 0, 63, "6efcd06626f54bfcd22cb0aee33d180f");
      (Variant.Restricted, 40, 1, 54, "1e636946a6dc664c3bbbbe68c9b3552e");
      (Variant.Semi_oblivious, 48, 0, 63, "a4d07e4451750506f4bc732c90d0daee");
    ]

(* ------------- budgets ------------- *)

let test_budget_is_respected () =
  let result = chase ~budget:50 Families.example2 (parse_facts "p(a, b).") in
  Alcotest.(check bool) "status budget" true (exhausted result);
  Alcotest.(check bool) "trigger cap honoured" true (result.Engine.triggers_applied <= 50)

(* ------------- limits and graceful degradation ------------- *)

(* Each limit kind on the divergence gallery: the run degrades instead of
   looping, the breach names the limit, and the partial instance is a
   sound prefix — every fact replays from its recorded derivation. *)

let zoo () = Parser.parse_rules_exn (read_data "divergent_zoo.chase")
let zoo_db () = parse_facts "p(a, a). q(a, a). r(a, a). marked(a)."

let check_partial_sound result =
  match Engine.check_provenance result ~db:(zoo_db ()) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("unsound partial result: " ^ msg)

let degraded_run limits =
  let result = chase ~limits (zoo ()) (zoo_db ()) in
  check_partial_sound result;
  exhaustion_exn result

let test_trigger_budget_breach () =
  let reason = degraded_run (Limits.make ~max_triggers:25 ()) in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Trigger_budget 25 -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check int) "stopped at the cap" 25 reason.Limits.Exhaustion.steps;
  Alcotest.(check bool) "firing table covers all steps" true
    (List.fold_left (fun acc (_, c) -> acc + c) 0
       reason.Limits.Exhaustion.rule_firings
    = 25)

let test_atom_budget_breach () =
  let reason = degraded_run (Limits.make ~max_atoms:40 ()) in
  match reason.Limits.Exhaustion.breach with
  | Limits.Atom_budget 40 -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_null_budget_breach () =
  let reason = degraded_run (Limits.make ~max_nulls:30 ()) in
  match reason.Limits.Exhaustion.breach with
  | Limits.Null_budget 30 -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_depth_budget_breach () =
  let reason = degraded_run (Limits.make ~max_depth:5 ()) in
  match reason.Limits.Exhaustion.breach with
  | Limits.Depth_budget 5 -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b

let test_deadline_breach_fake_clock () =
  (* an injected clock that jumps 10ms per reading: the 5s deadline
     expires after ~500 checks without any real waiting *)
  let t = ref 0. in
  let clock () = t := !t +. 0.01; !t in
  let reason =
    degraded_run (Limits.make ~timeout:5. ~clock ~check_every:1 ())
  in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Deadline 5. -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check bool) "elapsed beyond the deadline" true
    (reason.Limits.Exhaustion.elapsed >= 5.)

let test_cancellation () =
  let cancel = Limits.Cancel.create () in
  Limits.Cancel.cancel ~reason:"user interrupt" cancel;
  let reason = degraded_run (Limits.make ~cancel ()) in
  (match reason.Limits.Exhaustion.breach with
  | Limits.Cancelled (Some "user interrupt") -> ()
  | b -> Alcotest.failf "wrong breach: %a" Limits.pp_breach b);
  Alcotest.(check int) "pre-cancelled: no step taken" 0
    reason.Limits.Exhaustion.steps

let test_dominant_rule_and_null_rate () =
  (* one rule, one null per firing: the diagnostics are deterministic *)
  let rules = parse "z1: p(X, Y) -> p(Y, Z)." in
  let result = chase ~budget:10 rules (parse_facts "p(a, b).") in
  let reason = exhaustion_exn result in
  (match reason.Limits.Exhaustion.dominant_rule with
  | Some ("z1", 10) -> ()
  | Some (r, c) -> Alcotest.failf "wrong dominant rule: %s (%d)" r c
  | None -> Alcotest.fail "no dominant rule");
  Alcotest.(check (float 0.001)) "one null per trigger" 1.0
    reason.Limits.Exhaustion.null_rate;
  Alcotest.(check bool) "diagnosed as diverging" true
    (let d = Limits.Exhaustion.diagnosis reason in
     String.length d >= 9 && String.sub d 0 9 = "diverging")

let test_watchdog_streams () =
  let snaps = ref [] in
  let w = Watchdog.create ~every:16 (fun s -> snaps := s :: !snaps) in
  let config =
    { Engine.variant = Variant.Oblivious; limits = Limits.of_budget 200 }
  in
  let result = Engine.run ~config ~watchdog:w (zoo ()) (zoo_db ()) in
  Alcotest.(check bool) "run degraded" true (Engine.exhausted result);
  Alcotest.(check int) "every 16 steps over 200 triggers" 12
    (Watchdog.emitted w);
  let steps = List.rev_map (fun s -> s.Watchdog.step) !snaps in
  Alcotest.(check (list int)) "snapshots at the cadence"
    (List.init 12 (fun i -> 16 * (i + 1)))
    steps;
  List.iter
    (fun s ->
      Alcotest.(check bool) "meters populated" true
        (s.Watchdog.facts > 0 && s.Watchdog.nulls > 0))
    !snaps

let test_terminating_run_reports_firings () =
  let rules = parse "a: p(X) -> q(X). b: q(X) -> r(X)." in
  let result = chase rules (parse_facts "p(u). p(v).") in
  Alcotest.(check bool) "terminated" true
    (result.Engine.status = Engine.Terminated);
  Alcotest.(check (list (pair string int))) "per-rule firing counts"
    [ ("a", 2); ("b", 2) ]
    (List.sort compare result.Engine.rule_firings);
  Alcotest.(check int) "queue drained" 0 result.Engine.queue_residual;
  match Engine.check_provenance result ~db:(parse_facts "p(u). p(v).") with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("unsound terminating result: " ^ msg)

(* ------------- critical instance ------------- *)

let test_critical_plain () =
  let rules = parse "p(X, Y) -> q(Y)." in
  let crit = Critical.of_rules rules in
  (* p/2 over {*}: 1 fact; q/1: 1 fact *)
  Alcotest.(check int) "two facts" 2 (Instance.cardinal crit)

let test_critical_standard () =
  let rules = parse "p(X, Y) -> q(Y)." in
  let crit = Critical.of_rules ~standard:true rules in
  (* p/2 over {*,0,1}: 9; q/1: 3 *)
  Alcotest.(check int) "twelve facts" 12 (Instance.cardinal crit)

let test_critical_includes_rule_constants () =
  let rules = parse "p(X, c) -> q(X)." in
  let crit = Critical.of_rules rules in
  (* constants {*, c}: p/2 → 4, q/1 → 2 *)
  Alcotest.(check int) "six facts" 6 (Instance.cardinal crit);
  Alcotest.(check bool) "p(✶, c) present" true
    (Instance.mem crit (Atom.of_list "p" [ Critical.star; Term.Const "c" ]))

let test_critical_size_guard () =
  let rules = parse "p(A, B, C, D, E, F, G, H, I, J) -> q(A)." in
  (* 3^10 + 3 facts exceed an explicit cap *)
  Alcotest.(check bool) "refuses oversized instance" true
    (try
       ignore (Critical.of_rules ~standard:true ~max_facts:10_000 rules);
       false
     with Critical.Too_large _ -> true);
  (* and the default cap refuses a truly huge schema *)
  let big = parse "r(A, B, C, D, E, F, G, H, I, J, K, L, M) -> q(A)." in
  Alcotest.(check bool) "default cap engages" true
    (try ignore (Critical.of_rules ~standard:true big); false
     with Critical.Too_large _ -> true)

(* Every database maps homomorphically onto the critical instance, so a
   chase that terminates on the critical instance terminates on every
   database.  Checked on random linear sets and random databases over
   their schema: each fact, its constants sent to ✶, is a critical fact,
   and when the critical so-chase closes, so does the database's. *)
let critical_absorbs_databases =
  let gen =
    QCheck.Gen.(
      pair small_nat
        (list_size (int_range 1 6) (pair small_nat (list_repeat 3 small_nat))))
  in
  let print = QCheck.Print.(pair int (list (pair int (list int)))) in
  qcheck ~count:100 "critical instance absorbs every database"
    (QCheck.make ~print gen) (fun (seed, facts) ->
      let rules = Random_tgds.linear ~seed () in
      let preds = Array.of_list (Schema.to_list (Schema.of_rules rules)) in
      let db =
        List.map
          (fun (p, cs) ->
            let p, n = preds.(p mod Array.length preds) in
            Atom.of_list p
              (List.init n (fun i -> Term.Const (Fmt.str "c%d" (List.nth cs i mod 4)))))
          facts
      in
      let crit = Critical.of_rules rules in
      List.for_all
        (fun a -> Instance.mem crit (Atom.map_terms (fun _ -> Critical.star) a))
        db
      && ((not (crit_chase_terminates ~budget:2_000 Variant.Semi_oblivious rules))
         || not
              (exhausted
                 (chase ~variant:Variant.Semi_oblivious
                    ~limits:(Limits.make ~max_triggers:50_000 ~max_atoms:200_000 ())
                    rules db))))

let suite =
  [
    Alcotest.test_case "example 1 prefix shape" `Quick test_example1_shape;
    Alcotest.test_case "terminating chase is a model" `Quick
      test_terminating_chase_is_model;
    Alcotest.test_case "oblivious vs semi-oblivious triggers" `Quick
      test_oblivious_vs_semioblivious_counts;
    Alcotest.test_case "restricted blocks satisfied triggers" `Quick
      test_restricted_blocks_satisfied;
    Alcotest.test_case "restricted terminates on separator" `Quick
      test_restricted_terminates_on_separator;
    Alcotest.test_case "FIFO fairness" `Quick test_fairness_breadth;
    Alcotest.test_case "multi-head atoms share nulls" `Quick test_multi_head_shares_null;
    Alcotest.test_case "set semantics dedup" `Quick test_set_semantics_dedup;
    Alcotest.test_case "provenance depths" `Quick test_provenance_depths;
    Alcotest.test_case "provenance parents and guard" `Quick
      test_provenance_parents_and_guard;
    Alcotest.test_case "lazily built derivations stay exact" `Quick
      test_derivations_exact;
    Alcotest.test_case "matcher counters exact across threads" `Quick
      test_stats_exact_under_threads;
    trigger_depth_is_body_depth;
    Alcotest.test_case "closure of a 30-cycle: work pinned" `Quick
      test_closure_work_pinned;
    Alcotest.test_case "multi-atom heads: trigger sequence pinned (o, r, so)" `Quick
      test_multi_head_sequence_pinned;
    Alcotest.test_case "budgets respected" `Quick test_budget_is_respected;
    Alcotest.test_case "trigger budget: sound partial prefix" `Quick
      test_trigger_budget_breach;
    Alcotest.test_case "atom budget: sound partial prefix" `Quick
      test_atom_budget_breach;
    Alcotest.test_case "null budget: sound partial prefix" `Quick
      test_null_budget_breach;
    Alcotest.test_case "depth budget: sound partial prefix" `Quick
      test_depth_budget_breach;
    Alcotest.test_case "deadline breach (injected clock)" `Quick
      test_deadline_breach_fake_clock;
    Alcotest.test_case "cooperative cancellation" `Quick test_cancellation;
    Alcotest.test_case "dominant rule and null-growth diagnosis" `Quick
      test_dominant_rule_and_null_rate;
    Alcotest.test_case "watchdog snapshot cadence" `Quick test_watchdog_streams;
    Alcotest.test_case "terminating run reports firings" `Quick
      test_terminating_run_reports_firings;
    Alcotest.test_case "critical instance (plain)" `Quick test_critical_plain;
    Alcotest.test_case "critical instance (standard)" `Quick test_critical_standard;
    Alcotest.test_case "critical instance includes rule constants" `Quick
      test_critical_includes_rule_constants;
    Alcotest.test_case "critical instance size guard" `Quick test_critical_size_guard;
    critical_absorbs_databases;
    Alcotest.test_case "growth path: budget runs on crit(Σ) pinned (o, so)" `Quick
      test_growth_path_pinned;
    Alcotest.test_case "provenance check rejects each broken record" `Quick
      test_check_provenance_rejects;
  ]

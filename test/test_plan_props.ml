(** Property tests for the join planner and the planned matcher.

    Hand-rolled deterministic generators (seeded [Random.State], no
    shrinking needed — a failing seed is its own reproducer).  Instance
    sizes straddle the planned matcher's small-instance cutoff so both
    the fallback path and real plans are exercised.

    Pinned properties:
    - every plan is a permutation of the body;
    - a seeded plan places the pinned atom first;
    - the planned matcher enumerates exactly the naive matcher's
      substitution multiset, seeded or not, under any initial binding,
      and under an adversarial explicit plan;
    - both policies of the slot core enumerate exactly what an
      index-free backtracking reference over all facts enumerates;
    - the engine's slot-array triggers order as [Subst.compare] orders
      their homomorphisms, and semi-oblivious frontier keys agree exactly
      when the frontier-restricted homomorphisms do;
    - the instance indexes (buckets, counts, distinct terms) agree with a
      brute-force recount, buckets newest first. *)

open Chase
open Test_util

let subst_testable = Alcotest.testable Subst.pp Subst.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed schema with skewed term distributions: position 0 draws from a
   small constant pool (big buckets), later positions from a larger one
   (small buckets) — so selectivity actually varies across positions. *)
let preds = [| ("p", 2); ("q", 3); ("r", 1); ("s", 2) |]

let const st k = Term.Const (Fmt.str "c%d" (Random.State.int st k))

let gen_fact st =
  let p, n = preds.(Random.State.int st (Array.length preds)) in
  Atom.of_list p (List.init n (fun i -> const st (if i = 0 then 4 else 9)))

let gen_instance st ~atoms =
  let ins = Instance.create () in
  for _ = 1 to atoms do
    ignore (Instance.add ins (gen_fact st))
  done;
  ins

(* Bodies of 2–4 atoms over a shared pool of 4 variables, with repeated
   variables and occasional constants. *)
let gen_body st =
  let n = 2 + Random.State.int st 3 in
  List.init n (fun _ ->
      let p, k = preds.(Random.State.int st (Array.length preds)) in
      Atom.of_list p
        (List.init k (fun _ ->
             if Random.State.float st 1.0 < 0.7 then
               Term.Var (Fmt.str "X%d" (Random.State.int st 4))
             else const st 9)))

(* Instance sizes around the cutoff: tiny, straddling, comfortably above. *)
let size_of_seed seed = [| 10; 50; 64; 80; 200 |].(seed mod 5)

let run_seeds n f =
  for seed = 0 to n - 1 do
    let st = Random.State.make [| 0xBEEF; seed |] in
    f seed st
  done

(* ------------------------------------------------------------------ *)
(* Plan-shape properties                                               *)
(* ------------------------------------------------------------------ *)

(* The planner's view of a body: compiled over its variables in name
   order, none bound up front. *)
let plan_for ?pin ins body =
  let vars, body = Template.compile_all body in
  Plan.of_templates ~bound:(Array.make (Array.length vars) false) ?pin ins body

let plan_is_permutation () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let n = List.length body in
      let plan = plan_for ins body in
      Alcotest.(check int)
        (Fmt.str "seed %d: the plan is a permutation" seed)
        n
        (Plan.is_permutation plan);
      Alcotest.(check int)
        (Fmt.str "seed %d: plan length" seed)
        n (Plan.length plan);
      for pin = 0 to n - 1 do
        Alcotest.(check int)
          (Fmt.str "seed %d pin %d: the pinned plan is a permutation" seed pin)
          n
          (Plan.is_permutation (plan_for ins body ~pin))
      done)

let seeded_plan_pins_first () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      for pin = 0 to List.length body - 1 do
        let plan = plan_for ins body ~pin in
        Alcotest.(check int)
          (Fmt.str "seed %d: pinned atom is matched first" seed)
          pin
          (Plan.order plan).(0)
      done);
  Alcotest.check_raises "pin out of range"
    (Invalid_argument "Plan.of_templates: pin out of range") (fun () ->
      let body = [ Atom.of_list "p" [ Term.Const "c" ] ] in
      ignore (plan_for (Instance.create ()) body ~pin:1))

let plan_atoms_matches_order () =
  run_seeds 50 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let plan = plan_for ins body in
      let arr = Array.of_list body in
      Alcotest.(check (list atom_testable))
        (Fmt.str "seed %d: Plan.atoms follows Plan.order" seed)
        (List.map (fun i -> arr.(i)) (Array.to_list (Plan.order plan)))
        (Plan.atoms plan body))

(* ------------------------------------------------------------------ *)
(* Matcher-equivalence properties                                      *)
(* ------------------------------------------------------------------ *)

let collect iter_fn =
  let acc = ref [] in
  iter_fn (fun s -> acc := s :: !acc);
  List.sort Subst.compare !acc

let check_same_subs ctx naive planned =
  Alcotest.(check (list subst_testable)) ctx (collect naive) (collect planned)

let planned_equals_naive () =
  run_seeds 150 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      check_same_subs
        (Fmt.str "seed %d: iter" seed)
        (Hom.iter_naive ins body)
        (Hom.iter_planned ins body))

let planned_equals_naive_with_init () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      (* bind one of the pool variables up front *)
      let init = Subst.bind_exn Subst.empty "X0" (const st 9) in
      check_same_subs
        (Fmt.str "seed %d: iter ~init" seed)
        (Hom.iter_naive ~init ins body)
        (Hom.iter_planned ~init ins body))

let seeded_planned_equals_naive () =
  run_seeds 150 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      (* the seed is a fresh fact, as in the engine's delta loop *)
      let seed_fact = gen_fact st in
      ignore (Instance.add ins seed_fact);
      check_same_subs
        (Fmt.str "seed %d: iter_seeded" seed)
        (Hom.iter_seeded_naive ins body ~seed:seed_fact)
        (Hom.iter_seeded_planned ins body ~seed:seed_fact))

(* An explicit plan that differs from the planner's own choice (the last
   body atom forced first): the substitution multiset must not move. *)
let explicit_plan_equals_naive () =
  run_seeds 100 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let n = List.length body in
      let forced = plan_for ins body ~pin:(n - 1) in
      check_same_subs
        (Fmt.str "seed %d: iter ?plan" seed)
        (Hom.iter_naive ins body)
        (Hom.iter_planned ~plan:forced ins body))

(* A reference that uses no index: plain backtracking over every fact of
   the instance with [Hom.match_atom].  With [seed], only substitutions
   mapping some body atom onto the seed.  A substitution fixes the image
   of every body atom, so each is produced once. *)
let reference ?(init = Subst.empty) ?seed ins body f =
  let facts = Instance.to_list ins in
  let is_seed a = match seed with Some s -> Atom.equal a s | None -> false in
  let rec go pats sub used =
    match pats with
    | [] -> if used || seed = None then f sub
    | pat :: rest ->
      List.iter
        (fun a ->
          match Hom.match_atom sub pat a with
          | Some sub' -> go rest sub' (used || is_seed a)
          | None -> ())
        facts
  in
  go body init false

(* Both policies of the slot core, seeded and not, with and without an
   initial binding, through the substitution wrappers and through
   [iter_slots] itself, against the index-free reference. *)
let core_equals_reference () =
  run_seeds 120 (fun seed st ->
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let body = gen_body st in
      let seed_fact = gen_fact st in
      ignore (Instance.add ins seed_fact);
      let init =
        if seed mod 2 = 0 then Subst.empty
        else Subst.bind_exn Subst.empty "X0" (const st 9)
      in
      let vars, templates = Template.compile_all body in
      let via_slots ?seed f =
        let slots =
          Array.map (fun v -> Option.value (Subst.find_opt v init) ~default:Hom.unbound) vars
        in
        let free =
          List.filter (fun i -> not (Subst.mem vars.(i) init)) (List.init (Array.length vars) Fun.id)
        in
        Hom.iter_slots ?seed ins templates ~slots
          (fun _ ->
            f (List.fold_left (fun s i -> Subst.bind_exn s vars.(i) slots.(i)) init free))
      in
      let with_matcher m iter f =
        let saved = Hom.matcher () in
        Hom.set_matcher m;
        Fun.protect ~finally:(fun () -> Hom.set_matcher saved) (fun () -> iter f)
      in
      let want = collect (reference ~init ins body) in
      let want_seeded = collect (reference ~init ~seed:seed_fact ins body) in
      let seed_id = Instance.id_of ins seed_fact in
      List.iter
        (fun (what, want, got) ->
          Alcotest.(check (list subst_testable)) (Fmt.str "seed %d: %s" seed what) want
            (collect got))
        [
          ("naive", want, Hom.iter_naive ~init ins body);
          ("planned", want, Hom.iter_planned ~init ins body);
          ("slots naive", want, with_matcher Hom.Naive (via_slots ?seed:None));
          ("slots planned", want, with_matcher Hom.Planned (via_slots ?seed:None));
          ("seeded naive", want_seeded, Hom.iter_seeded_naive ~init ins body ~seed:seed_fact);
          ( "seeded planned",
            want_seeded,
            Hom.iter_seeded_planned ~init ins body ~seed:seed_fact );
          ( "slots seeded naive",
            want_seeded,
            with_matcher Hom.Naive (via_slots ~seed:seed_id) );
          ( "slots seeded planned",
            want_seeded,
            with_matcher Hom.Planned (via_slots ~seed:seed_id) );
        ])

(* The dispatching entry points follow the forced matcher. *)
let dispatch_follows_set_matcher () =
  let saved = Hom.matcher () in
  Fun.protect
    ~finally:(fun () -> Hom.set_matcher saved)
    (fun () ->
      let st = Random.State.make [| 0xD15; 7 |] in
      let ins = gen_instance st ~atoms:120 in
      let body = gen_body st in
      Hom.set_matcher Hom.Naive;
      let via_naive = collect (Hom.iter ins body) in
      Hom.set_matcher Hom.Planned;
      let via_planned = collect (Hom.iter ins body) in
      Alcotest.(check (list subst_testable))
        "dispatched matchers agree" via_naive via_planned;
      Alcotest.(check bool)
        "matcher () reports the override" true
        (Hom.matcher () = Hom.Planned))

(* ------------------------------------------------------------------ *)
(* Slot-compiled triggers                                              *)
(* ------------------------------------------------------------------ *)

let sign c = compare c 0

(* A rule over a random body whose head keeps a random subset of the body
   variables (the frontier) and invents one null. *)
let gen_rule st =
  let body = gen_body st in
  let module S = Chase_logic.Util.Sset in
  let vars = List.fold_left (fun s a -> S.union s (Atom.var_set a)) S.empty body in
  let kept = List.filter (fun _ -> Random.State.bool st) (S.elements vars) in
  Tgd.make_exn ~body
    ~head:[ Atom.of_list "h" (List.map (fun v -> Term.Var v) kept @ [ Term.Var "Z" ]) ]
    ()

let slot_order_is_subst_order =
  qcheck ~count:150 "slot order = Subst.compare, frontier keys = restrict"
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| 0x5107; seed |] in
      let ins = gen_instance st ~atoms:(size_of_seed seed) in
      let r = gen_rule st in
      let c = Trigger.compile 0 r in
      let subs = List.filteri (fun i _ -> i < 60) (Hom.all ins (Tgd.body r)) in
      let trs =
        List.map
          (fun s ->
            Trigger.make c
              (Array.init c.n_body (fun i -> Option.get (Subst.find_opt c.vars.(i) s)))
              ~depth:0)
          subs
      in
      let pairs = List.combine subs trs in
      let frontier s = Subst.restrict s (Tgd.frontier r) in
      let key = Trigger.key Variant.Semi_oblivious c in
      List.for_all
        (fun (s, t) ->
          Subst.equal (Trigger.to_subst c t.Trigger.vals) s
          && Subst.equal (Trigger.frontier_subst c t) (frontier s)
          && List.for_all
               (fun (s', t') ->
                 sign (Trigger.compare t t') = sign (Subst.compare s s')
                 && Trigger.equal (key t) (key t')
                    = Subst.equal (frontier s) (frontier s')
                 && ((not (Trigger.equal (key t) (key t')))
                    || (key t).Trigger.hash = (key t').Trigger.hash))
               pairs)
        pairs
      && List.equal Subst.equal
           (List.sort Subst.compare subs)
           (List.map (fun t -> Trigger.to_subst c t.Trigger.vals) (List.sort Trigger.compare trs)))

(* ------------------------------------------------------------------ *)
(* Instance indexes against a brute-force recount                      *)
(* ------------------------------------------------------------------ *)

(* Facts over nulls and constants; [w] is used at arity 1 and at arity 3,
   so its per-position tables must grow. *)
let gen_mixed_fact st =
  let term () =
    if Random.State.int st 3 = 0 then Term.Null (1 + Random.State.int st 5)
    else const st 6
  in
  let p, n =
    [| ("p", 2); ("q", 3); ("w", 1); ("w", 3); ("z", 0) |].(Random.State.int st 5)
  in
  Atom.of_list p (List.init n (fun _ -> term ()))

let instance_indexes_agree_with_recount =
  qcheck ~count:100 "instance indexes = brute-force recount" QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| 0x1D5; seed |] in
      let ins = Instance.create () in
      (* facts actually inserted, newest first *)
      let added = ref [] in
      for _ = 1 to 1 + Random.State.int st 120 do
        let a = gen_mixed_fact st in
        if Instance.add ins a then added := a :: !added
      done;
      let facts = !added in
      let sorted l = List.sort Atom.compare l in
      let terms = Term.Null 99 :: Term.Set.elements (Instance.term_set ins) in
      let arg_at i a =
        if 0 <= i && i < Atom.arity a then Some (Atom.arg a i) else None
      in
      let at p i t a =
        Atom.pred a = p && Option.equal Term.equal (arg_at i a) (Some t)
      in
      List.equal Atom.equal (sorted (Instance.to_list ins)) (sorted facts)
      && List.for_all
           (fun p ->
             let of_p = List.filter (fun a -> Atom.pred a = p) facts in
             Instance.count_of_pred ins p = List.length of_p
             && List.equal Atom.equal (Instance.atoms_of_pred ins p) of_p
             && List.for_all
                  (fun i ->
                    let distinct =
                      List.sort_uniq Term.compare (List.filter_map (arg_at i) of_p)
                    in
                    Instance.distinct_at ins p i = List.length distinct
                    && List.for_all
                         (fun t ->
                           let want = List.filter (at p i t) facts in
                           Instance.count_matching ins p i t = List.length want
                           && List.equal Atom.equal
                                (Instance.atoms_matching ins p i t) want)
                         terms)
                  [ -1; 0; 1; 2; 3 ])
           [ "p"; "q"; "w"; "z"; "absent" ]
      && List.for_all
           (fun t ->
             List.equal Atom.equal
               (Instance.atoms_containing ins t)
               (List.filter
                  (fun a -> Array.exists (Term.equal t) (Atom.args a))
                  facts))
           terms)

let suite =
  [
    Alcotest.test_case "plans are permutations of the body" `Quick
      plan_is_permutation;
    Alcotest.test_case "seeded plans place the pin first" `Quick
      seeded_plan_pins_first;
    Alcotest.test_case "Plan.atoms follows Plan.order" `Quick
      plan_atoms_matches_order;
    Alcotest.test_case "planned iter = naive iter (150 seeds)" `Quick
      planned_equals_naive;
    Alcotest.test_case "planned iter = naive iter under ~init" `Quick
      planned_equals_naive_with_init;
    Alcotest.test_case "planned seeded iter = naive seeded iter" `Quick
      seeded_planned_equals_naive;
    Alcotest.test_case "slot core = index-free reference (both policies)" `Quick
      core_equals_reference;
    Alcotest.test_case "explicit ?plan preserves the substitution set" `Quick
      explicit_plan_equals_naive;
    Alcotest.test_case "dispatch follows set_matcher" `Quick
      dispatch_follows_set_matcher;
    slot_order_is_subst_order;
    instance_indexes_agree_with_recount;
  ]

(** Lasso certificates (DESIGN.md §3.13): the checker rejects a
    certificate with any one of its six checks broken, the finder's
    certificates re-check, the detection steps of the two budget-run
    fixtures are pinned, and differential legs show that the lasso never
    fires on a chase that closes. *)

open Chase
open Test_util

let null n = Term.Null n
let star = Term.Const "*"
let rec_ rule vals = { Lasso.rule; vals = Array.of_list vals }

let expect_error name prefix = function
  | Ok () -> Alcotest.failf "%s: accepted" name
  | Error msg ->
    Alcotest.(check bool)
      (Fmt.str "%s: rejected by %s (%s)" name prefix msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let expect_ok name = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: rejected: %s" name msg

(* Two rules of the genealogy ontology.  f1 on person(✶) creates n1; f1
   on person(n1) creates n2.  S = {the second}, h = n1 ↦ n2 is the
   one-rule lasso. *)
let family = parse "f1: person(X) -> has_father(X, Y), person(Y).\nf2: person(X) -> has_mother(X, Y), person(Y)."

let base =
  {
    Lasso.records = [| rec_ 0 [ star; null 1 ]; rec_ 0 [ null 1; null 2 ] |];
    lasso = [ 1 ];
    shift = [ (null 1, null 2) ];
    step = 2;
  }

let check ?(variant = Variant.Semi_oblivious) cert = Lasso.check ~variant family cert

let mutations () =
  expect_ok "the hand-built lasso (so)" (check base);
  expect_ok "the hand-built lasso (o)" (check ~variant:Variant.Oblivious base);
  (* 1: R is a valid derivation *)
  expect_error "underived body fact" "check 1"
    (check { base with records = [| rec_ 0 [ star; null 1 ]; rec_ 0 [ null 7; null 2 ] |] });
  expect_error "reused null" "check 1"
    (check { base with records = [| rec_ 0 [ star; null 1 ]; rec_ 0 [ null 1; null 1 ] |] });
  expect_error "constant outside crit(Σ)" "check 1"
    (check
       { base with records = [| rec_ 0 [ Term.Const "c"; null 1 ]; rec_ 0 [ null 1; null 2 ] |] });
  expect_error "repeated key" "check 1"
    (check
       {
         base with
         records = [| rec_ 0 [ star; null 1 ]; rec_ 0 [ star; null 3 ]; rec_ 0 [ null 1; null 2 ] |];
         lasso = [ 2 ];
       });
  (* 2: h is defined on S's body terms and fixes constants *)
  expect_error "h undefined" "check 2" (check { base with shift = [] });
  expect_error "h moves a constant" "check 2"
    (check { base with shift = [ (null 1, null 2); (star, null 2) ] });
  (* 3: every shifted body fact is fixed or a head of S *)
  expect_error "shifted body fact underived" "check 3"
    (check { base with shift = [ (null 1, null 9) ] });
  (* 4: f1 on person(✶) shifts onto itself, yet h moves its null n1 onto
     the null f2 created: S = {f1 on person(✶), f2 on person(n1)} *)
  expect_error "a null shifted off its own trigger" "check 4"
    (check
       {
         base with
         records = [| rec_ 0 [ star; null 1 ]; rec_ 1 [ null 1; null 2 ] |];
         lasso = [ 0; 1 ];
       });
  (* 5: no frontier slot moves onto a created null *)
  expect_error "no cycle" "check 5" (check { base with shift = [ (null 1, null 1) ] });
  (* 6 *)
  expect_error "restricted" "check 6" (check ~variant:Variant.Restricted base)

(* The two decide-corpus sets that exhausted the 20,000-trigger budget
   before lassos: the step of the accepted lasso, and its re-check. *)
let w1 = parse "w1: p(X, Y), q(Y, Z) -> p(Y, W), q(W, X)."
let variants = [ Variant.Oblivious; Variant.Semi_oblivious ]

let detection_steps () =
  List.iter
    (fun (name, rules, o, so) ->
      List.iter
        (fun (variant, step) ->
          match Simulation.chase ~budget:20_000 ~variant rules with
          | Simulation.Lasso l ->
            Alcotest.(check int) (Fmt.str "%s %a: step" name Variant.pp variant) step l.Lasso.step;
            expect_ok (Fmt.str "%s %a: re-check" name Variant.pp variant)
              (Lasso.check ~variant rules l);
            let v = Decide.check ~budget:20_000 ~variant rules in
            Alcotest.(check bool) (Fmt.str "%s %a: Decide diverges" name Variant.pp variant) true
              (Verdict.is_diverging v);
            (match v.Verdict.witness with
            | Some (Verdict.Lasso l') -> expect_ok "the verdict's lasso re-checks" (Lasso.check ~variant rules l')
            | _ -> Alcotest.fail "expected a lasso witness")
          | _ -> Alcotest.failf "%s %a: no lasso" name Variant.pp variant)
        [ (Variant.Oblivious, o); (Variant.Semi_oblivious, so) ])
    [ ("w1", w1, 109, 37); ("guarded_divergent-3", Families.guarded_divergent ~arity:3, 109, 37) ]

(* The shipped divergent programs: Decide's lasso witness re-checks. *)
let shipped_lassos () =
  List.iter
    (fun file ->
      let rules = parse (read_data file) in
      List.iter
        (fun variant ->
          let v = Decide.check ~variant rules in
          match v.Verdict.witness with
          | Some (Verdict.Lasso l) ->
            expect_ok (Fmt.str "%s %a" file Variant.pp variant) (Lasso.check ~variant rules l)
          | _ -> Alcotest.failf "%s %a: expected a lasso witness" file Variant.pp variant)
        variants)
    [ "genealogy.chase"; "divergent_zoo.chase" ]

(* A small generator of connected unguarded sets shaped like w1: each
   rule joins two binary atoms on one variable, so no body atom covers
   all three body variables, and its two head atoms share one
   existential. *)
let unguarded ~seed =
  let st = Random.State.make [| seed |] in
  let pred () = Fmt.str "p%d" (Random.State.int st 3) in
  let var v = Term.Var v in
  let pick () = var (List.nth [ "X"; "Y"; "Z" ] (Random.State.int st 3)) in
  List.init
    (1 + Random.State.int st 2)
    (fun i ->
      Tgd.make_exn ~name:(Fmt.str "u%d" i)
        ~body:[ Atom.of_list (pred ()) [ var "X"; var "Y" ]; Atom.of_list (pred ()) [ var "Y"; var "Z" ] ]
        ~head:[ Atom.of_list (pred ()) [ pick (); var "W" ]; Atom.of_list (pred ()) [ var "W"; pick () ] ]
        ())

let profile constant_bias = { Random_tgds.default_profile with constant_bias }

(* Each set with the limits of its lasso run and of its plain run:
   2,000 and 20,000 triggers, with [Limits.of_budget]'s atom caps.  The
   unguarded joins fan out, and an uncapped 20,000-trigger run of some
   of them holds gigabytes of queued triggers, so there both runs stop
   at a few thousand facts as well. *)
let corpus =
  let budgeted = (Limits.of_budget 2_000, Limits.of_budget 20_000) in
  List.concat_map
    (fun bias ->
      List.concat_map
        (fun seed ->
          [
            ( Fmt.str "linear bias %.1f seed %d" bias seed,
              Random_tgds.linear ~seed ~profile:(profile bias) (),
              budgeted );
            ( Fmt.str "guarded bias %.1f seed %d" bias seed,
              Random_tgds.guarded ~seed ~profile:(profile bias) (),
              budgeted );
          ])
        (List.init 300 Fun.id))
    [ 0.; 0.3 ]
  @ List.init 100 (fun seed ->
        ( Fmt.str "unguarded seed %d" seed,
          unguarded ~seed,
          ( Limits.make ~max_triggers:2_000 ~max_atoms:2_000 (),
            Limits.make ~max_triggers:20_000 ~max_atoms:4_000 () ) ))

(* A lasso found within the small limits re-checks, and the plain chase
   of the same crit(Σ) does not close within the large ones. *)
let never_fires_on_closing_chases () =
  let fired = ref 0 in
  List.iter
    (fun (name, rules, (small, large)) ->
      List.iter
        (fun variant ->
          match Simulation.chase ~standard:false ~limits:(Limits.copy small) ~variant rules with
          | Simulation.Lasso l ->
            incr fired;
            let ctx = Fmt.str "%s %a" name Variant.pp variant in
            expect_ok ctx (Lasso.check ~standard:false ~variant rules l);
            let crit = Instance.to_list (Critical.of_rules ~standard:false rules) in
            let plain = Engine.run ~config:{ Engine.variant; limits = Limits.copy large } rules crit in
            Alcotest.(check bool) (ctx ^ ": the plain chase does not close") true (exhausted plain)
          | Simulation.Closed _ | Simulation.Exhausted _ -> ())
        variants)
    corpus;
  Alcotest.(check bool) (Fmt.str "the lasso fired (%d times)" !fired) true (!fired > 0)

(* Where Theorem 2's procedure answers terminates, the lasso never
   fires; and Linear.check never answers through a lasso there. *)
let never_fires_where_linear_terminates () =
  List.iter
    (fun (name, rules, _) ->
      if Classify.is_linear rules then
        List.iter
          (fun variant ->
            let v = Linear.check ~standard:false ~variant rules in
            (match v.Verdict.witness with
            | Some (Verdict.Lasso _) -> Alcotest.failf "%s: Linear.check answered by a lasso" name
            | _ -> ());
            if Verdict.is_terminating v then
              match Simulation.chase ~standard:false ~budget:2_000 ~variant rules with
              | Simulation.Lasso _ ->
                Alcotest.failf "%s %a: lasso on a terminating set" name Variant.pp variant
              | Simulation.Closed _ | Simulation.Exhausted _ -> ())
          variants)
    corpus

(* A cancelled token stops the linear lasso search before it finishes:
   on this two-rule arity-10 set the search alone takes seconds. *)
let search_honours_cancel () =
  let rules =
    parse
      "r1: p(X, X, A, B, C, D, E, F, G, H) -> q(A, B, C, D, E, F, G, H, Z, W).\n\
       r2: q(X, X, A, B, C, D, E, F, G, H) -> s(A, B, C, D, E, F, G, H, Z, W)."
  in
  let cancel = Limits.Cancel.create () in
  Limits.Cancel.cancel ~reason:"test" cancel;
  let v = Linear.check ~limits:(Limits.make ~cancel ()) ~variant:Variant.Semi_oblivious rules in
  Alcotest.(check bool) "unknown" true (Verdict.is_unknown v);
  Alcotest.(check bool) "the search names the cancellation" true
    (contains v.Verdict.evidence "lasso search"
    && contains v.Verdict.evidence "cancellation request (test)")

(* A crit(Σ) the atom cap refuses is not built, and the answer names
   the atom budget and crit(Σ)'s size as the engine would. *)
let refused_crit () =
  match Simulation.chase ~budget:1_000 ~variant:Variant.Oblivious (Families.linear_blocked ~arity:8) with
  | Simulation.Exhausted e ->
    Alcotest.(check (option int)) "no run" None
      (Option.map (fun r -> r.Engine.triggers_applied) e.Simulation.partial);
    Alcotest.(check int) "crit(Σ)'s size" 6561 e.Simulation.facts;
    Alcotest.(check string) "breach" "atom budget of 4000 facts"
      (Fmt.str "%a" Limits.pp_breach e.Simulation.reason.Limits.Exhaustion.breach)
  | _ -> Alcotest.fail "expected an exhausted outcome"

let suite =
  [
    Alcotest.test_case "each of the six checks rejects a broken certificate" `Quick mutations;
    Alcotest.test_case "detection steps pinned: w1, guarded_divergent-3 (o, so)" `Quick
      detection_steps;
    Alcotest.test_case "shipped divergent programs: lasso witnesses re-check" `Quick
      shipped_lassos;
    Alcotest.test_case "never fires where the plain chase closes (2,000 vs 20,000 triggers)" `Slow
      never_fires_on_closing_chases;
    Alcotest.test_case "never fires where Linear.check terminates" `Slow
      never_fires_where_linear_terminates;
    Alcotest.test_case "a cancelled token stops the linear lasso search" `Quick
      search_honours_cancel;
    Alcotest.test_case "a crit(Σ) above the atom cap is not built" `Quick refused_crit;
  ]

(** The Σ-flow framework and its consumers.

    Two layers under test: the position-dataflow substrate ({!Flow} —
    affected positions, may-trigger edges, strata) and the two
    termination conditions built on it ({!Super_weak}, {!Strata}).

    The load-bearing batteries:

    - {e soundness oracle}: on ~100 random guarded sets, every
      sufficient condition that claims termination must agree with the
      exact guarded decision procedure — a claim against a [Diverges]
      verdict would be a soundness bug, not a precision gap;
    - {e lattice inclusions}: weak ⊆ super-weak and joint ⊆ super-weak,
      checked empirically over the same seeds. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Flow substrate                                                      *)
(* ------------------------------------------------------------------ *)

let flow_affected () =
  let rules = parse "p(X) -> q(X, Y).  q(X, Y) -> r(Y)." in
  let flow = Flow.build rules in
  Alcotest.(check (list (pair string int)))
    "nulls land at q[1] and flow to r[0]"
    [ ("q", 1); ("r", 0) ]
    (Flow.affected flow);
  Alcotest.(check bool) "q[0] unaffected" false
    (Flow.Pos_set.mem ("q", 0) (Flow.affected_set flow))

let flow_fires () =
  let rules = parse "p(X) -> q(X, Y).  q(X, Y) -> r(Y).  r(X) -> s(X)." in
  let flow = Flow.build rules in
  Alcotest.(check (list (pair int int)))
    "chain triggers in rule order"
    [ (0, 1); (1, 2) ]
    (Flow.fires flow)

let flow_fires_constants () =
  (* Head constant "a" cannot unify with body constant "b": the edge
     must be refined away even though the predicates match. *)
  let rules = parse "s(X) -> t(a, Y).  t(b, Z) -> s(Z)." in
  let flow = Flow.build rules in
  Alcotest.(check (list (pair int int)))
    "constant-incompatible edge pruned"
    [ (1, 0) ]
    (Flow.fires flow)

let flow_strata () =
  let rules = parse "p(X) -> q(X, Y).  q(X, Y) -> r(Y).  r(X) -> s(X)." in
  let flow = Flow.build rules in
  Alcotest.(check (list (list int)))
    "producers first, one stratum each"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (Flow.strata flow);
  Alcotest.(check int) "stratum of the sink" 2 (Flow.stratum_of flow).(2)

let flow_strata_cycle () =
  let rules = parse "p(X, Y) -> p(Y, Z).  p(X, Y) -> q(X)." in
  let flow = Flow.build rules in
  Alcotest.(check (list (list int)))
    "self-feeding rule before its consumer"
    [ [ 0 ]; [ 1 ] ]
    (Flow.strata flow)

let flow_empty () =
  let flow = Flow.build [] in
  Alcotest.(check (list (list int))) "no rules, no strata" [] (Flow.strata flow);
  Alcotest.(check (list (pair int int))) "no edges" [] (Flow.fires flow)

(* ------------------------------------------------------------------ *)
(* Super-weak acyclicity                                               *)
(* ------------------------------------------------------------------ *)

let swa_positive () =
  List.iter
    (fun (name, prog) ->
      Alcotest.(check bool) name true
        (Super_weak.is_super_weakly_acyclic (parse prog)))
    [
      ("weakly acyclic chain", "p(X) -> q(X, Y).  q(X, Y) -> r(Y).");
      (* No frontier variable: the semi-oblivious chase fires the rule
         once in total, so the self-loop on p is harmless. *)
      ("frontierless self-feed", "p(X) -> p(Y).");
      (* Constant refinement: the invented null lands under one head
         constant, the only consumer requires a different one. *)
      ("constant-guarded loop", "s(X) -> t(a, Y).  t(b, Z) -> s(Z).");
      (* Jointly acyclic but not weakly acyclic: q[1]'s null never
         reaches a position feeding Z's landing site. *)
      ( "joint-beyond-weak witness",
        "p(X, Y) -> q(Y, Z).  q(Y, Z), r(Z) -> p(Y, Z)." );
    ]

let swa_negative () =
  match Super_weak.check (parse "p(X, Y) -> p(Y, Z).") with
  | None -> Alcotest.fail "divergent self-feed claimed super-weakly acyclic"
  | Some hops ->
    Alcotest.(check bool) "cycle is non-empty" true (hops <> []);
    List.iter
      (fun (h : Super_weak.hop) ->
        Alcotest.(check int) "single rule in the cycle" 0 h.Super_weak.rule;
        Alcotest.(check (pair string int))
          "null lands at p[1]" ("p", 1) h.Super_weak.landing)
      hops

(* ------------------------------------------------------------------ *)
(* Safe stratification                                                 *)
(* ------------------------------------------------------------------ *)

let strata_safe () =
  (* Not weakly acyclic — the frontier variable X lands next to the
     existential, closing the special cycle s[0] →* t[2] → s[0] in the
     position graph — but the constant refinement (a vs b at t[0])
     breaks the may-trigger edge, so the two rules sit in different
     strata, each weakly acyclic alone. *)
  let rules = parse "s(X) -> t(a, X, Y).  t(b, X, Y) -> s(Y)." in
  Alcotest.(check bool) "not weakly acyclic" false
    (Weak.is_weakly_acyclic rules);
  let s = Strata.compute rules in
  Alcotest.(check bool) "safe" true (s.Strata.cyclic = None);
  Alcotest.(check (list (list int)))
    "consumer stratum first (it feeds s)"
    [ [ 1 ]; [ 0 ] ]
    s.Strata.strata

let strata_unsafe () =
  let s = Strata.compute (parse "p(X, Y) -> p(Y, Z).") in
  Alcotest.(check bool) "cyclic stratum reported" true
    (s.Strata.cyclic = Some [ 0 ])

(* ------------------------------------------------------------------ *)
(* Decide integration                                                  *)
(* ------------------------------------------------------------------ *)

let decide_uses_new_conditions () =
  (* Unguarded (rule 3's body has no atom covering X, Y and Z), not
     weakly acyclic (special cycle s[0] →* t[2] → s[0]) and not jointly
     acyclic (the position-level move closure feeds the frontier of
     rule 1), but the place-level constant refinement (a vs b) shows
     rule 1's nulls can never re-trigger it — [Decide] must resolve the
     set by a flow condition, without falling through to the
     simulation. *)
  let rules =
    parse
      "s(X), u(X) -> t(a, X, Y).  t(b, X, Y) -> s(Y), u(Y).  s(X), t(Y, Y, \
       Z) -> u(X)."
  in
  Alcotest.(check string) "classified unguarded" "unguarded"
    (Classify.cls_to_string (Classify.classify rules));
  Alcotest.(check bool) "not weakly acyclic" false
    (Weak.is_weakly_acyclic rules);
  let v = Decide.check ~variant:Variant.Semi_oblivious rules in
  Alcotest.(check string) "terminates" "terminates"
    (Verdict.answer_to_string (Verdict.answer v));
  Alcotest.(check bool)
    (Fmt.str "by a flow condition (got %s)" v.Verdict.procedure)
    true
    (List.mem v.Verdict.procedure
       [
         "super-weak-acyclicity (sufficient)"; "stratification (sufficient)";
       ])

(* ------------------------------------------------------------------ *)
(* Soundness oracle and lattice inclusions on random guarded sets      *)
(* ------------------------------------------------------------------ *)

let soundness_oracle () =
  for seed = 0 to 99 do
    let rules = Random_tgds.guarded ~seed () in
    let wa = Weak.is_weakly_acyclic rules in
    let ja = Joint.is_jointly_acyclic rules in
    let swa = Super_weak.is_super_weakly_acyclic rules in
    let strat = Strata.is_safe rules in
    let mfa = Mfa.is_mfa ~standard:false ~budget:2_000 rules in
    let rich = Rich.is_richly_acyclic rules in
    (* Inclusions: weak ⊆ joint ⊆ super-weak (Marnette). *)
    if wa then
      Alcotest.(check bool) (Fmt.str "seed %d: wa => swa" seed) true swa;
    if ja then
      Alcotest.(check bool) (Fmt.str "seed %d: ja => swa" seed) true swa;
    (* Soundness: a sufficient condition never contradicts the exact
       guarded procedure.  Rich acyclicity is oblivious-sound; the
       others are semi-oblivious-sound. *)
    let diverges variant =
      Verdict.is_diverging
        (Decide.check ~standard:false ~budget:2_000 ~variant rules)
    in
    if rich then
      Alcotest.(check bool)
        (Fmt.str "seed %d: rich vs oblivious decide" seed)
        false
        (diverges Variant.Oblivious);
    if wa || ja || swa || strat || mfa then
      Alcotest.(check bool)
        (Fmt.str "seed %d: sufficient conditions vs semi-oblivious decide"
           seed)
        false
        (diverges Variant.Semi_oblivious)
  done

let suite =
  [
    Alcotest.test_case "flow: affected positions" `Quick flow_affected;
    Alcotest.test_case "flow: may-trigger edges" `Quick flow_fires;
    Alcotest.test_case "flow: constant refinement" `Quick flow_fires_constants;
    Alcotest.test_case "flow: strata" `Quick flow_strata;
    Alcotest.test_case "flow: strata with a cycle" `Quick flow_strata_cycle;
    Alcotest.test_case "flow: empty rule set" `Quick flow_empty;
    Alcotest.test_case "super-weak: positives" `Quick swa_positive;
    Alcotest.test_case "super-weak: witnessed negative" `Quick swa_negative;
    Alcotest.test_case "strata: safe beyond weak" `Quick strata_safe;
    Alcotest.test_case "strata: cyclic stratum" `Quick strata_unsafe;
    Alcotest.test_case "decide: flow conditions close the gap" `Quick
      decide_uses_new_conditions;
    Alcotest.test_case "soundness oracle: 100 guarded seeds" `Slow
      soundness_oracle;
  ]

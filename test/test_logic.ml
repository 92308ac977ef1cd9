(** Unit tests for the logic substrate: terms, atoms, substitutions,
    instances, homomorphisms, patterns, TGDs, schemas. *)

open Chase
open Test_util

(* ---------------- terms ---------------- *)

let test_term_order () =
  Alcotest.(check bool) "const < var" true (Term.compare (Term.Const "a") (Term.Var "X") < 0);
  Alcotest.(check bool) "var < null" true (Term.compare (Term.Var "X") (Term.Null 0) < 0);
  Alcotest.(check bool) "null order" true (Term.compare (Term.Null 1) (Term.Null 2) < 0);
  Alcotest.(check bool) "equal consts" true (Term.equal (Term.Const "a") (Term.Const "a"))

let test_term_predicates () =
  Alcotest.(check bool) "is_const" true (Term.is_const (Term.Const "a"));
  Alcotest.(check bool) "is_var" true (Term.is_var (Term.Var "X"));
  Alcotest.(check bool) "is_null" true (Term.is_null (Term.Null 3));
  Alcotest.(check bool) "null not const" false (Term.is_const (Term.Null 3))

let test_term_set () =
  let s = Term.Set.of_list [ Term.Const "a"; Term.Const "a"; Term.Null 1 ] in
  Alcotest.(check int) "dedup" 2 (Term.Set.cardinal s)

(* ---------------- atoms ---------------- *)

let test_atom_basics () =
  let a = fact "p(a, b)" in
  Alcotest.(check string) "pred" "p" (Atom.pred a);
  Alcotest.(check int) "arity" 2 (Atom.arity a);
  check_term "arg 0" (Term.Const "a") (Atom.arg a 0);
  Alcotest.(check bool) "ground" true (Atom.is_ground a)

let test_atom_equal_hash () =
  let a1 = fact "p(a, b)" and a2 = fact "p(a, b)" and a3 = fact "p(b, a)" in
  Alcotest.(check bool) "equal" true (Atom.equal a1 a2);
  Alcotest.(check bool) "hash agrees" true (Atom.hash a1 = Atom.hash a2);
  Alcotest.(check bool) "different" false (Atom.equal a1 a3)

let test_atom_vars () =
  let r = parse_rule "p(X, Y, X) -> q(X, Z)" in
  let body_atom = List.hd (Tgd.body r) in
  Alcotest.(check int) "two vars" 2
    (Chase_logic.Util.Sset.cardinal (Atom.var_set body_atom));
  Alcotest.(check bool) "repeated var detected" false (Atom.no_repeated_var body_atom)

let test_atom_positions () =
  let r = parse_rule "p(X, Y, X) -> q(X)" in
  let a = List.hd (Tgd.body r) in
  Alcotest.(check (list int)) "positions of X" [ 0; 2 ]
    (Atom.positions_of_term a (Term.Var "X"))

let test_atom_nullary () =
  let a = fact "go()" in
  Alcotest.(check int) "arity 0" 0 (Atom.arity a);
  Alcotest.(check bool) "ground" true (Atom.is_ground a)

(* ---------------- substitutions ---------------- *)

let test_subst_bind_conflict () =
  let s = Subst.of_list [ ("X", Term.Const "a") ] in
  Alcotest.(check bool) "rebind same ok" true
    (Option.is_some (Subst.bind s "X" (Term.Const "a")));
  Alcotest.(check bool) "rebind different fails" true
    (Option.is_none (Subst.bind s "X" (Term.Const "b")))

let test_subst_apply () =
  let r = parse_rule "p(X, Y) -> q(Y)" in
  let s = Subst.of_list [ ("X", Term.Const "a"); ("Y", Term.Null 7) ] in
  let applied = Subst.apply_atom s (List.hd (Tgd.body r)) in
  check_atom "applied" (Atom.of_list "p" [ Term.Const "a"; Term.Null 7 ]) applied

let test_subst_restrict () =
  let s = Subst.of_list [ ("X", Term.Const "a"); ("Y", Term.Const "b") ] in
  let r = Subst.restrict s (Chase_logic.Util.Sset.singleton "Y") in
  Alcotest.(check int) "one binding" 1 (Subst.cardinal r);
  Alcotest.(check bool) "keeps Y" true (Subst.mem "Y" r)

(* ---------------- instances ---------------- *)

let test_instance_dedup () =
  let ins = Instance.create () in
  Alcotest.(check bool) "first add new" true (Instance.add ins (fact "p(a, b)"));
  Alcotest.(check bool) "second add dup" false (Instance.add ins (fact "p(a, b)"));
  Alcotest.(check int) "size" 1 (Instance.cardinal ins)

let test_instance_indexes () =
  let ins =
    Instance.of_list (parse_facts "p(a, b). p(a, c). p(b, c). q(a).")
  in
  Alcotest.(check int) "by pred" 3 (List.length (Instance.atoms_of_pred ins "p"));
  Alcotest.(check int) "by pred/pos/term" 2
    (List.length (Instance.atoms_matching ins "p" 0 (Term.Const "a")));
  Alcotest.(check int) "by term" 3
    (List.length (Instance.atoms_containing ins (Term.Const "a")))

let test_instance_vars_rejected () =
  let ins = Instance.create () in
  Alcotest.check_raises "variable atom rejected"
    (Invalid_argument "Instance.add: atom contains a variable") (fun () ->
      ignore (Instance.add ins (Atom.of_list "p" [ Term.Var "X" ])))

(* ---------------- homomorphisms ---------------- *)

let test_hom_all () =
  let ins = Instance.of_list (parse_facts "e(a, b). e(b, c). e(c, a).") in
  let r = parse_rule "e(X, Y), e(Y, Z) -> e(X, Z)" in
  let homs = Hom.all ins (Tgd.body r) in
  (* triangle: every edge composes with exactly one successor *)
  Alcotest.(check int) "three 2-paths" 3 (List.length homs)

let test_hom_repeated_var () =
  let ins = Instance.of_list (parse_facts "p(a, a). p(a, b).") in
  let r = parse_rule "p(X, X) -> q(X)" in
  Alcotest.(check int) "only diagonal matches" 1
    (List.length (Hom.all ins (Tgd.body r)))

let test_hom_constant_in_body () =
  let ins = Instance.of_list (parse_facts "p(a, b). p(c, b).") in
  let r = parse_rule "p(a, Y) -> q(Y)" in
  Alcotest.(check int) "constant filter" 1 (List.length (Hom.all ins (Tgd.body r)))

(* The engine's seeded search: bindings of [body] that map some atom onto
   the fact [seed]. *)
let seeded_count ins body ~seed =
  let vars, body = Template.compile_all body in
  let found = ref 0 in
  Hom.iter_slots ~seed:(Instance.id_of ins seed) ins body
    ~slots:(Array.make (Array.length vars) Hom.unbound)
    (fun _ -> incr found);
  !found

let test_hom_seeded () =
  let ins = Instance.of_list (parse_facts "e(a, b). e(b, c).") in
  let r = parse_rule "e(X, Y), e(Y, Z) -> e(X, Z)" in
  (* the only 2-path is a→b→c, and it uses the seed *)
  Alcotest.(check int) "one seeded hom" 1
    (seeded_count ins (Tgd.body r) ~seed:(fact "e(b, c)"))

let test_hom_seeded_no_duplicates () =
  (* a hom whose body atoms BOTH map to the seed must be produced once *)
  let ins = Instance.of_list (parse_facts "e(a, a).") in
  let r = parse_rule "e(X, Y), e(Y, X) -> q(X)" in
  Alcotest.(check int) "no duplicate" 1
    (seeded_count ins (Tgd.body r) ~seed:(fact "e(a, a)"))

let test_instance_hom () =
  let i1 = Instance.of_list [ Atom.of_list "p" [ Term.Const "a"; Term.Null 1 ] ] in
  let i2 = Instance.of_list (parse_facts "p(a, b).") in
  Alcotest.(check bool) "null maps onto constant" true
    (Option.is_some (Hom.instance_hom i1 i2));
  Alcotest.(check bool) "constants are rigid" false
    (Option.is_some (Hom.instance_hom i2 i1))

(* ---------------- patterns ---------------- *)

let test_pattern_canonical () =
  let p1 = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 2; Term.Null 1 ]) in
  let p2 = Pattern.of_atom (Atom.of_list "p" [ Term.Null 9; Term.Null 4; Term.Null 9 ]) in
  Alcotest.check pattern_testable "same shape" p1 p2

let test_pattern_distinguishes () =
  let p1 = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 1 ]) in
  let p2 = Pattern.of_atom (Atom.of_list "p" [ Term.Null 1; Term.Null 2 ]) in
  let p3 = Pattern.of_atom (fact "p(a, a)") in
  Alcotest.(check bool) "diagonal vs distinct" false (Pattern.equal p1 p2);
  Alcotest.(check bool) "null vs const" false (Pattern.equal p1 p3)

let test_pattern_instantiate () =
  let counter = ref 100 in
  let fresh_null () = incr counter; Term.Null !counter in
  let p = Pattern.of_atom (Atom.of_list "p" [ Term.Const "a"; Term.Null 1; Term.Null 1 ]) in
  let a = Pattern.instantiate ~fresh_null p in
  Alcotest.check pattern_testable "round trip" p (Pattern.of_atom a);
  check_term "constant preserved" (Term.Const "a") (Atom.arg a 0);
  Alcotest.(check bool) "shared null" true (Term.equal (Atom.arg a 1) (Atom.arg a 2))

let pattern_roundtrip_prop =
  (* random fact → pattern → instantiate → same pattern *)
  let gen =
    QCheck.Gen.(
      let term =
        oneof [ map (fun i -> Term.Null (i mod 3)) small_nat;
                oneofl [ Term.Const "a"; Term.Const "b" ] ]
      in
      map (fun ts -> Atom.of_list "p" ts) (list_size (int_range 1 5) term))
  in
  qcheck ~count:200 "pattern instantiate round-trips" (QCheck.make gen) (fun a ->
      let counter = ref 1000 in
      let fresh_null () = incr counter; Term.Null !counter in
      let p = Pattern.of_atom a in
      Pattern.equal p (Pattern.of_atom (Pattern.instantiate ~fresh_null p)))

(* ---------------- TGDs ---------------- *)

let test_tgd_frontier () =
  let r = parse_rule "p(X, Y), q(Y, W) -> r(Y, Z), s(Z, W)" in
  let module S = Chase_logic.Util.Sset in
  Alcotest.(check (list string)) "frontier" [ "W"; "Y" ]
    (S.elements (Tgd.frontier r));
  Alcotest.(check (list string)) "existentials" [ "Z" ]
    (S.elements (Tgd.existentials r))

let test_tgd_validation () =
  Alcotest.(check bool) "empty body rejected" true
    (Result.is_error (Tgd.make ~body:[] ~head:[ fact "p(a)" ] ()));
  Alcotest.(check bool) "arity clash rejected" true
    (Result.is_error
       (Tgd.make
          ~body:[ Atom.of_list "p" [ Term.Var "X" ] ]
          ~head:[ Atom.of_list "p" [ Term.Var "X"; Term.Var "Y" ] ]
          ()))

let test_tgd_full () =
  Alcotest.(check bool) "full" true (Tgd.is_full (parse_rule "p(X, Y) -> q(Y, X)"));
  Alcotest.(check bool) "not full" false (Tgd.is_full (parse_rule "p(X) -> q(X, Z)"))

let test_tgd_rename_apart () =
  let r = parse_rule "p(X) -> q(X, Z)" in
  let r' = Tgd.rename_apart ~suffix:"_1" r in
  let module S = Chase_logic.Util.Sset in
  Alcotest.(check bool) "disjoint vars" true
    (S.is_empty (S.inter (Tgd.body_vars r) (Tgd.body_vars r')))

let test_tgd_constants () =
  let r = parse_rule "p(X, c) -> q(X, d)" in
  let module S = Chase_logic.Util.Sset in
  Alcotest.(check (list string)) "constants" [ "c"; "d" ]
    (S.elements (Tgd.constants r))

(* ---------------- schema ---------------- *)

let test_schema_positions () =
  let s = Schema.of_rules (parse "p(X, Y) -> q(Y).") in
  Alcotest.(check int) "3 positions" 3 (Schema.position_count s);
  Alcotest.(check int) "2 predicates" 2 (Schema.cardinal s);
  Alcotest.(check int) "max arity" 2 (Schema.max_arity s)

let test_schema_arity_clash () =
  Alcotest.(check bool) "cross-rule clash detected" true
    (try ignore (Schema.of_rules (parse "p(X) -> q(X). q(X, Y) -> p(X).")); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "term ordering" `Quick test_term_order;
    Alcotest.test_case "term predicates" `Quick test_term_predicates;
    Alcotest.test_case "term sets dedup" `Quick test_term_set;
    Alcotest.test_case "atom basics" `Quick test_atom_basics;
    Alcotest.test_case "atom equality and hash" `Quick test_atom_equal_hash;
    Alcotest.test_case "atom variables" `Quick test_atom_vars;
    Alcotest.test_case "atom positions" `Quick test_atom_positions;
    Alcotest.test_case "nullary atoms" `Quick test_atom_nullary;
    Alcotest.test_case "subst bind conflicts" `Quick test_subst_bind_conflict;
    Alcotest.test_case "subst apply" `Quick test_subst_apply;
    Alcotest.test_case "subst restrict" `Quick test_subst_restrict;
    Alcotest.test_case "instance dedup" `Quick test_instance_dedup;
    Alcotest.test_case "instance indexes" `Quick test_instance_indexes;
    Alcotest.test_case "instance rejects variables" `Quick test_instance_vars_rejected;
    Alcotest.test_case "hom enumeration" `Quick test_hom_all;
    Alcotest.test_case "hom repeated variables" `Quick test_hom_repeated_var;
    Alcotest.test_case "hom constants in body" `Quick test_hom_constant_in_body;
    Alcotest.test_case "hom seeded" `Quick test_hom_seeded;
    Alcotest.test_case "hom seeded no duplicates" `Quick test_hom_seeded_no_duplicates;
    Alcotest.test_case "instance homomorphism" `Quick test_instance_hom;
    Alcotest.test_case "pattern canonical" `Quick test_pattern_canonical;
    Alcotest.test_case "pattern distinguishes" `Quick test_pattern_distinguishes;
    Alcotest.test_case "pattern instantiate" `Quick test_pattern_instantiate;
    pattern_roundtrip_prop;
    Alcotest.test_case "tgd frontier" `Quick test_tgd_frontier;
    Alcotest.test_case "tgd validation" `Quick test_tgd_validation;
    Alcotest.test_case "tgd fullness" `Quick test_tgd_full;
    Alcotest.test_case "tgd rename apart" `Quick test_tgd_rename_apart;
    Alcotest.test_case "tgd constants" `Quick test_tgd_constants;
    Alcotest.test_case "schema positions" `Quick test_schema_positions;
    Alcotest.test_case "schema arity clash" `Quick test_schema_arity_clash;
  ]

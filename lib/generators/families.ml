(** Named parametric rule-set families.

    These are the workloads of the experiment harness: the paper's running
    examples, the separating examples behind Theorems 1 and 2, and scalable
    families for the complexity-shape experiments (E3, E4b). *)

open Chase_logic

let atom p args = Atom.of_list p args
let v s = Term.Var s

let rule ?name body head = Tgd.make_exn ?name ~body ~head ()

(* ------------------------------------------------------------------ *)
(* The paper's examples                                                *)
(* ------------------------------------------------------------------ *)

(** Example 1: person(X) → ∃Y hasFather(X,Y) ∧ person(Y).
    Diverges under every variant. *)
let example1 =
  [
    rule ~name:"father"
      [ atom "person" [ v "X" ] ]
      [ atom "hasFather" [ v "X"; v "Y" ]; atom "person" [ v "Y" ] ];
  ]

(** Example 2: p(X,Y) → ∃Z p(Y,Z).  Diverges under o and so. *)
let example2 = [ rule ~name:"step" [ atom "p" [ v "X"; v "Y" ] ] [ atom "p" [ v "Y"; v "Z" ] ] ]

(** The o/so separator: p(X,Y) → ∃Z p(X,Z) — weakly but not richly
    acyclic; the oblivious chase diverges, the semi-oblivious terminates. *)
let separator =
  [ rule ~name:"sep" [ atom "p" [ v "X"; v "Y" ] ] [ atom "p" [ v "X"; v "Z" ] ] ]

(** Theorem 2's phenomenon: p(X,X) → ∃Z p(X,Z) has a dangerous cycle but
    terminates — the repeated body variable can never be matched by the
    produced fact. *)
let thm2_counterexample =
  [ rule ~name:"cex" [ atom "p" [ v "X"; v "X" ] ] [ atom "p" [ v "X"; v "Z" ] ] ]

(* ------------------------------------------------------------------ *)
(* Scalable simple linear families (E3a)                               *)
(* ------------------------------------------------------------------ *)

let pred_name base i = Fmt.str "%s%d" base i

(** [sl_chain n]: p0(X,Y) → ∃Z p1(Y,Z), …, p(n-1) → pn.  Richly acyclic;
    every variant terminates.  Dependency graph size grows linearly. *)
let sl_chain n =
  List.init n (fun i ->
      rule
        ~name:(Fmt.str "c%d" i)
        [ atom (pred_name "p" i) [ v "X"; v "Y" ] ]
        [ atom (pred_name "p" (i + 1)) [ v "Y"; v "Z" ] ])

(** [sl_cycle n]: the chain closed back to p0 — a dangerous cycle of
    length n; diverges under o and so. *)
let sl_cycle n =
  sl_chain (n - 1)
  @ [
      rule ~name:"close"
        [ atom (pred_name "p" (n - 1)) [ v "X"; v "Y" ] ]
        [ atom (pred_name "p" 0) [ v "Y"; v "Z" ] ];
    ]

(** [sl_cycle_benign n]: the cycle variant that only reuses the frontier
    in the first position — weakly acyclic (so-terminating) but not richly
    acyclic (o-diverging); scales the Theorem 1 separation. *)
let sl_cycle_benign n =
  List.init n (fun i ->
      rule
        ~name:(Fmt.str "b%d" i)
        [ atom (pred_name "p" i) [ v "X"; v "Y" ] ]
        [ atom (pred_name "p" ((i + 1) mod n)) [ v "X"; v "Z" ] ])

(* ------------------------------------------------------------------ *)
(* Linear families with repeated variables (E2, E3b)                   *)
(* ------------------------------------------------------------------ *)

(** [linear_blocked ~arity]: a rule whose body repeats one variable across
    the first two positions and whose head breaks the repetition — the
    dangerous cycle exists in the dependency graph but is unrealizable, so
    the chase terminates.  Generalizes [thm2_counterexample] to any arity
    ≥ 2. *)
let linear_blocked ~arity =
  if arity < 2 then invalid_arg "linear_blocked: arity must be ≥ 2";
  let body_args = v "X" :: v "X" :: List.init (arity - 2) (fun i -> v (Fmt.str "Y%d" i)) in
  let head_args = v "X" :: v "Z" :: List.init (arity - 2) (fun i -> v (Fmt.str "Y%d" i)) in
  [ rule ~name:"blocked" [ atom "p" body_args ] [ atom "p" head_args ] ]

(** [linear_rotating ~arity]: p(X1,…,Xk) → ∃Z p(X2,…,Xk,Z) — genuinely
    divergent at every arity; the pattern space explored by the
    critical-linear procedure grows with [arity]. *)
let linear_rotating ~arity =
  if arity < 1 then invalid_arg "linear_rotating: arity must be ≥ 1";
  let xs = List.init arity (fun i -> v (Fmt.str "X%d" i)) in
  let rotated = List.tl xs @ [ v "Z" ] in
  [ rule ~name:"rot" [ atom "p" xs ] [ atom "p" rotated ] ]

(** A linear set whose semi-oblivious chase terminates although the
    critical-instance chase builds a {e cyclic} skolem term — a witness
    that even model-faithful acyclicity is incomplete on linear TGDs
    (found by the random agreement scan, seed 85): the cyclic null lands
    in a position from which the repeated-variable body can never pick it
    up again. *)
let mfa_incomplete_witness =
  [
    rule ~name:"w0"
      [ atom "p2" [ v "V1"; v "V0"; v "V1" ] ]
      [ atom "p2" [ v "V1"; v "V1"; v "V0" ]; atom "p2" [ v "V1"; v "Z1"; v "V0" ] ];
    rule ~name:"w1"
      [ atom "p1" [ v "V0"; v "V0" ] ]
      [ atom "p1" [ v "V0"; v "Z1" ]; atom "p2" [ v "V0"; v "V0"; v "V0" ] ];
    rule ~name:"w2" [ atom "p0" [ v "V0" ] ] [ atom "p1" [ v "V0"; v "V0" ] ];
  ]

(* ------------------------------------------------------------------ *)
(* Guarded families (E4)                                               *)
(* ------------------------------------------------------------------ *)

(** [guarded_divergent ~arity]: r(X1,…,Xk), m(Xk) → ∃Z r(X2,…,Xk,Z), m(Z).
    Properly guarded (two body atoms), diverges under o and so.  At arity
    1 the frontier is empty, so the semi-oblivious chase fires once and
    stops: arity 1 is refused. *)
let guarded_divergent ~arity =
  if arity < 2 then invalid_arg "guarded_divergent: arity must be ≥ 2";
  let xs = List.init arity (fun i -> v (Fmt.str "X%d" i)) in
  let last = List.nth xs (arity - 1) in
  let rotated = List.tl xs @ [ v "Z" ] in
  [
    rule ~name:"gdiv"
      [ atom "r" xs; atom "m" [ last ] ]
      [ atom "r" rotated; atom "m" [ v "Z" ] ];
  ]

(** [guarded_terminating ~arity]: the same shape but producing a fresh
    predicate that never feeds back. *)
let guarded_terminating ~arity =
  if arity < 1 then invalid_arg "guarded_terminating: arity must be ≥ 1";
  let xs = List.init arity (fun i -> v (Fmt.str "X%d" i)) in
  let last = List.nth xs (arity - 1) in
  let rotated = List.tl xs @ [ v "Z" ] in
  [
    rule ~name:"gter"
      [ atom "r" xs; atom "m" [ last ] ]
      [ atom "s" rotated; atom "m2" [ v "Z" ] ];
    rule ~name:"gter2" [ atom "s" xs ] [ atom "t" [ List.hd xs ] ];
  ]

(** [guarded_tower ~levels]: a terminating guarded cascade whose chase
    depth grows with [levels] — each level spawns the next through a
    guarded join. *)
let guarded_tower ~levels =
  List.init levels (fun i ->
      rule
        ~name:(Fmt.str "t%d" i)
        [ atom (pred_name "r" i) [ v "X"; v "Y" ]; atom (pred_name "m" i) [ v "Y" ] ]
        [
          atom (pred_name "r" (i + 1)) [ v "Y"; v "Z" ];
          atom (pred_name "m" (i + 1)) [ v "Z" ];
        ])

(* ------------------------------------------------------------------ *)
(* §4: single-head linear families for the restricted chase (E8)       *)
(* ------------------------------------------------------------------ *)

(** e(X,Y) → ∃Z e(Y,Z) ∧ e(Z,Y): diverges under o/so, but the restricted
    chase terminates on every database — after one firing every produced
    edge has a symmetric partner, which satisfies all later triggers. *)
let restricted_separator =
  [
    rule ~name:"rsep"
      [ atom "e" [ v "X"; v "Y" ] ]
      [ atom "e" [ v "Y"; v "Z" ]; atom "e" [ v "Z"; v "Y" ] ];
  ]

(** Diverges under all three variants. *)
let restricted_divergent = example2

(** A single-head linear terminating cascade. *)
let single_head_chain n =
  List.init n (fun i ->
      rule
        ~name:(Fmt.str "s%d" i)
        [ atom (pred_name "q" i) [ v "X" ] ]
        [ atom (pred_name "q" (i + 1)) [ v "Y" ] ])

(* ------------------------------------------------------------------ *)
(* Wide-body join families (E12: planned vs naive matching)            *)
(* ------------------------------------------------------------------ *)

(** [wide_body ~width]: one full rule with a [width]-atom star join whose
    only selective atom is written {e last}:

    big(X,Y₁), …, big(X,Y_{width-1}), sel(X) → out(Y₁, X)

    Left-to-right matching enumerates every [big] fact and its whole
    fan-out before consulting [sel]; a selectivity-ordered plan binds
    [sel] first and touches only the selected star.  This is the E12
    workload separating the planned matcher from the naive reference. *)
let wide_body ~width =
  if width < 2 then invalid_arg "Families.wide_body: width must be >= 2";
  let body =
    List.init (width - 1) (fun i -> atom "big" [ v "X"; v (Fmt.str "Y%d" i) ])
    @ [ atom "sel" [ v "X" ] ]
  in
  [ rule ~name:"wide" body [ atom "out" [ v "Y0"; v "X" ] ] ]

(** A database for {!wide_body}: [hubs] star centres with [fanout]
    successors each, and a single selected centre.  Deterministic. *)
let wide_body_db ~hubs ~fanout =
  let edges =
    List.concat
      (List.init hubs (fun h ->
           List.init fanout (fun k ->
               atom "big"
                 [ Term.Const (Fmt.str "h%d" h);
                   Term.Const (Fmt.str "n%d_%d" h k) ])))
  in
  atom "sel" [ Term.Const "h0" ] :: edges

(** The catalogue used by the examples and the census experiment. *)
let catalogue : (string * Tgd.t list) list =
  [
    ("example1", example1);
    ("example2", example2);
    ("separator", separator);
    ("thm2-counterexample", thm2_counterexample);
    ("sl-chain-4", sl_chain 4);
    ("sl-cycle-4", sl_cycle 4);
    ("sl-cycle-benign-4", sl_cycle_benign 4);
    ("linear-blocked-3", linear_blocked ~arity:3);
    ("linear-rotating-3", linear_rotating ~arity:3);
    ("mfa-incomplete-witness", mfa_incomplete_witness);
    ("guarded-divergent-3", guarded_divergent ~arity:3);
    ("guarded-terminating-3", guarded_terminating ~arity:3);
    ("guarded-tower-3", guarded_tower ~levels:3);
    ("restricted-separator", restricted_separator);
    ("single-head-chain-4", single_head_chain 4);
  ]

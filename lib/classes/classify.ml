(** Recognizers for the TGD classes of the paper.

    The classes form the chain SL ⊆ L ⊆ G:

    - {b guarded} (G): some body atom — the guard — contains every
      universally quantified variable of the rule;
    - {b linear} (L): the body is a single atom (hence trivially guarded);
    - {b simple linear} (SL): linear, no variable is repeated in the
      body atom, and no constant occurs in the rule (Theorem 1 covers
      constant-free rules only).

    Also recognized: {b full} TGDs (no existential variable, i.e. Datalog
    rules possibly with multiple head atoms), and the {b single-head}
    restriction of §4 (each predicate occurs in the head of at most one
    rule, each rule has one head atom). *)

open Chase_logic

type cls =
  | Simple_linear
  | Linear
  | Guarded
  | Unguarded

let cls_to_string = function
  | Simple_linear -> "simple-linear"
  | Linear -> "linear"
  | Guarded -> "guarded"
  | Unguarded -> "unguarded"

let pp_cls fm c = Fmt.string fm (cls_to_string c)

(** [guard_of r] is the first body atom containing all body variables of
    [r], if any. *)
let guard_of r =
  let bvars = Tgd.body_vars r in
  List.find_opt (fun a -> Util.Sset.subset bvars (Atom.var_set a)) (Tgd.body r)

let rule_is_guarded r = Option.is_some (guard_of r)

(** The body atom covering the most body variables — the best guard
    candidate (first among ties); the guard itself on guarded rules. *)
let best_guard_candidate r =
  let bvars = Tgd.body_vars r in
  let coverage a = Util.Sset.cardinal (Util.Sset.inter bvars (Atom.var_set a)) in
  match Tgd.body r with
  | [] -> None
  | a :: rest ->
    let best, _ =
      List.fold_left
        (fun (best, c) a' ->
          let c' = coverage a' in
          if c' > c then (a', c') else (best, c))
        (a, coverage a) rest
    in
    Some best

(** The body variables left uncovered by the best guard candidate — why
    the rule is not guarded ([[]] on guarded rules). *)
let unguarded_witness r =
  if rule_is_guarded r then []
  else
    match best_guard_candidate r with
    | None -> []
    | Some a ->
      Util.Sset.diff (Tgd.body_vars r) (Atom.var_set a)
      |> Util.Sset.elements
      |> List.map (fun v -> Term.Var v)

let rule_is_linear r = match Tgd.body r with [ _ ] -> true | _ -> false

let rule_is_simple_linear r =
  match Tgd.body r with
  | [ a ] -> Atom.no_repeated_var a && Util.Sset.is_empty (Tgd.constants r)
  | _ -> false

(** The most specific class of a single rule. *)
let classify_rule r =
  if rule_is_simple_linear r then Simple_linear
  else if rule_is_linear r then Linear
  else if rule_is_guarded r then Guarded
  else Unguarded

(** The most specific class containing every rule of the set. *)
let classify rules =
  let join c1 c2 =
    match c1, c2 with
    | Unguarded, _ | _, Unguarded -> Unguarded
    | Guarded, _ | _, Guarded -> Guarded
    | Linear, _ | _, Linear -> Linear
    | Simple_linear, Simple_linear -> Simple_linear
  in
  List.fold_left (fun acc r -> join acc (classify_rule r)) Simple_linear rules

let is_simple_linear rules = List.for_all rule_is_simple_linear rules
let is_linear rules = List.for_all rule_is_linear rules
let is_guarded rules = List.for_all rule_is_guarded rules

(** Full (Datalog) rules: no existential variables. *)
let is_full rules = List.for_all Tgd.is_full rules

(** Single-head rule sets in the sense of §4: every rule has exactly one
    head atom, and no predicate occurs in the head of two distinct rules. *)
let is_single_head rules =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun r ->
      match Tgd.head r with
      | [ a ] ->
        let p = Atom.pred a in
        if Hashtbl.mem seen p then false
        else begin
          Hashtbl.add seen p ();
          true
        end
      | _ -> false)
    rules

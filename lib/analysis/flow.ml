(** Σ-flow: position-dataflow analysis over rule sets.  See the
    interface for the framework's vocabulary; implementation notes:

    - {e unification} is first-order unification of two atoms whose
      variable spaces are kept apart (no function symbols, so a
      union-find over tagged variables with one rigid constant per
      class suffices);
    - the head-occurrence × body-occurrence unifiability matrix is
      precomputed once and shared by [fires], [place_unifies] and the
      [move] fixpoint;
    - every relation over-approximates: when in doubt an edge is
      {e added}, which only ever weakens the sufficient conditions
      built on top. *)

open Chase_logic

type position = string * int

module Pos_set = Set.Make (struct
  type t = position

  let compare (p1, i1) (p2, i2) =
    let c = String.compare p1 p2 in
    if c <> 0 then c else Int.compare i1 i2
end)

type side =
  | Body
  | Head

type place = {
  rule : int;
  side : side;
  atom : int;
  pos : int;
}

type null_edge = {
  src : int;
  dst : int;
  existential : string;
  frontier : string;
  landing : position;
}

module Place_set = Set.Make (struct
  type t = place

  let compare = compare
end)

(* First-order unifiability of two atoms with disjoint variable spaces
   (tags 0/1).  Union-find over tagged variables; each class carries at
   most one constant.  Rules never contain nulls ([Tgd.make] rejects
   them), so a [Null] argument is treated as unmatchable. *)
let unifiable a b =
  Atom.pred a = Atom.pred b
  && Atom.arity a = Atom.arity b
  &&
  let parent : (int * string, int * string) Hashtbl.t = Hashtbl.create 8 in
  let const : (int * string, string) Hashtbl.t = Hashtbl.create 8 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None -> v
    | Some p ->
      let r = find p in
      Hashtbl.replace parent v r;
      r
  in
  let ok = ref true in
  let bind_const v c =
    let rv = find v in
    match Hashtbl.find_opt const rv with
    | Some c' -> if c' <> c then ok := false
    | None -> Hashtbl.replace const rv c
  in
  let union v w =
    let rv = find v and rw = find w in
    if rv <> rw then begin
      (match (Hashtbl.find_opt const rv, Hashtbl.find_opt const rw) with
      | Some c1, Some c2 when c1 <> c2 -> ok := false
      | Some c, None -> Hashtbl.replace const rw c
      | _ -> ());
      Hashtbl.replace parent rv rw
    end
  in
  Array.iteri
    (fun i ta ->
      if !ok then
        match (ta, Atom.arg b i) with
        | Term.Const c1, Term.Const c2 -> if c1 <> c2 then ok := false
        | Term.Var v, Term.Const c -> bind_const (0, v) c
        | Term.Const c, Term.Var w -> bind_const (1, w) c
        | Term.Var v, Term.Var w -> union (0, v) (1, w)
        | Term.Null _, _ | _, Term.Null _ -> ok := false)
    (Atom.args a);
  !ok

type t = {
  rules : Tgd.t array;
  bodies : Atom.t array array;
  heads : Atom.t array array;
  positions : position list;
  affected : Pos_set.t;
  unif : (int * int * int * int, unit) Hashtbl.t;
      (* (rule, head atom idx, rule', body atom idx) present iff the two
         occurrences are unifiable *)
  frontier_places : (int * string * place list * place list) list;
      (* per (rule, frontier var): In = body places, Out = head places *)
  fires : (int * int) list;
  null_edges : null_edge list;
  strata : int list list;
  stratum_of : int array;
}

let rules t = t.rules
let positions t = t.positions
let affected_set t = t.affected
let affected t = Pos_set.elements t.affected
let fires t = t.fires
let null_edges t = t.null_edges
let strata t = t.strata
let stratum_of t = t.stratum_of

let place_atom t p =
  (match p.side with Body -> t.bodies | Head -> t.heads).(p.rule).(p.atom)

let place_position t p = (Atom.pred (place_atom t p), p.pos)

let pp_place t fm p =
  Fmt.pf fm "%s[%d]@@rule#%d:%s"
    (Atom.pred (place_atom t p))
    p.pos (p.rule + 1)
    (match p.side with Body -> "body" | Head -> "head")

let places_of atoms rule side x =
  let acc = ref [] in
  Array.iteri
    (fun ai a ->
      Array.iteri
        (fun i arg -> if Term.equal arg (Term.Var x) then
            acc := { rule; side; atom = ai; pos = i } :: !acc)
        (Atom.args a))
    atoms;
  List.rev !acc

let places_of_var t ~rule side x =
  places_of (match side with Body -> t.bodies | Head -> t.heads).(rule) rule
    side x

(* Place unification: same argument index and the atom occurrences unify
   (the precomputed matrix answers head×body lookups; the rare remaining
   side combinations recompute). *)
let place_unifies t p q =
  p.pos = q.pos
  &&
  match (p.side, q.side) with
  | Head, Body -> Hashtbl.mem t.unif (p.rule, p.atom, q.rule, q.atom)
  | Body, Head -> Hashtbl.mem t.unif (q.rule, q.atom, p.rule, p.atom)
  | _ -> unifiable (place_atom t p) (place_atom t q)

let move t places =
  let p = ref (Place_set.of_list places) in
  let reaches q = Place_set.exists (fun pl -> place_unifies t pl q) !p in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, _, inp, outp) ->
        if
          inp <> []
          && List.for_all reaches inp
          && List.exists (fun o -> not (Place_set.mem o !p)) outp
        then begin
          List.iter (fun o -> p := Place_set.add o !p) outp;
          changed := true
        end)
      t.frontier_places
  done;
  Place_set.elements !p

let build rule_list =
  let rules = Array.of_list rule_list in
  let n = Array.length rules in
  let bodies = Array.map (fun r -> Array.of_list (Tgd.body r)) rules in
  let heads = Array.map (fun r -> Array.of_list (Tgd.head r)) rules in
  (* position universe: every (pred, index) that occurs anywhere *)
  let positions =
    Array.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (p, ar) ->
            let rec add acc i =
              if i >= ar then acc else add (Pos_set.add (p, i) acc) (i + 1)
            in
            add acc 0)
          acc (Tgd.predicates r))
      Pos_set.empty rules
  in
  (* affected positions: existential landing sites, closed under
     frontier propagation (all body occurrences affected => head
     occurrences affected) *)
  let pos_of_var atoms x =
    Array.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc i -> Pos_set.add (Atom.pred a, i) acc)
          acc
          (Atom.positions_of_term a (Term.Var x)))
      Pos_set.empty atoms
  in
  let affected = ref Pos_set.empty in
  Array.iteri
    (fun ri r ->
      Util.Sset.iter
        (fun z -> affected := Pos_set.union (pos_of_var heads.(ri) z) !affected)
        (Tgd.existentials r))
    rules;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun ri r ->
        Util.Sset.iter
          (fun x ->
            let bp = pos_of_var bodies.(ri) x in
            if (not (Pos_set.is_empty bp)) && Pos_set.subset bp !affected then begin
              let hp = pos_of_var heads.(ri) x in
              if not (Pos_set.subset hp !affected) then begin
                affected := Pos_set.union hp !affected;
                changed := true
              end
            end)
          (Tgd.frontier r))
      rules
  done;
  (* head-occurrence × body-occurrence unifiability matrix *)
  let unif = Hashtbl.create 64 in
  Array.iteri
    (fun ri _ ->
      Array.iteri
        (fun ai a ->
          Array.iteri
            (fun rj _ ->
              Array.iteri
                (fun bi b ->
                  if unifiable a b then
                    Hashtbl.replace unif (ri, ai, rj, bi) ())
                bodies.(rj))
            rules)
        heads.(ri))
    rules;
  let frontier_places =
    Array.to_list
      (Array.mapi
         (fun ri r ->
           List.map
             (fun x ->
               ( ri,
                 x,
                 places_of bodies.(ri) ri Body x,
                 places_of heads.(ri) ri Head x ))
             (Util.Sset.elements (Tgd.frontier r)))
         rules)
    |> List.concat
  in
  (* the may-trigger relation straight off the matrix *)
  let fires =
    Hashtbl.fold (fun (ri, _, rj, _) () acc -> (ri, rj) :: acc) unif []
    |> List.sort_uniq compare
  in
  let t0 =
    {
      rules;
      bodies;
      heads;
      positions = Pos_set.elements positions;
      affected = !affected;
      unif;
      frontier_places;
      fires;
      null_edges = [];
      strata = [];
      stratum_of = Array.make n 0;
    }
  in
  (* super-weak trigger relation: one Move closure per existential *)
  let null_edges =
    Array.to_list
      (Array.mapi
         (fun ri r ->
           List.concat_map
             (fun z ->
               let out_z = places_of heads.(ri) ri Head z in
               match out_z with
               | [] -> []
               | first :: _ ->
                 let landing = place_position t0 first in
                 let m = move t0 out_z in
                 let mset = Place_set.of_list m in
                 let reaches q =
                   Place_set.exists (fun pl -> place_unifies t0 pl q) mset
                 in
                 List.filter_map
                   (fun (rj, x, inp, _) ->
                     if inp <> [] && List.for_all reaches inp then
                       Some
                         {
                           src = ri;
                           dst = rj;
                           existential = z;
                           frontier = x;
                           landing;
                         }
                     else None)
                   frontier_places)
             (Util.Sset.elements (Tgd.existentials r)))
         rules)
    |> List.concat
  in
  (* condensation of [fires], topological (producers first) *)
  let succs =
    let tbl = Array.make n [] in
    List.iter (fun (ri, rj) -> tbl.(ri) <- rj :: tbl.(ri)) fires;
    fun v -> tbl.(v)
  in
  let comp, ncomp = Util.scc ~n succs in
  (* Tarjan numbers sinks first; strata want producers first *)
  let stratum_of = Array.map (fun c -> ncomp - 1 - c) comp in
  let groups = Array.make ncomp [] in
  for v = n - 1 downto 0 do
    groups.(stratum_of.(v)) <- v :: groups.(stratum_of.(v))
  done;
  { t0 with null_edges; strata = Array.to_list groups; stratum_of }

let pp_summary fm t =
  Fmt.pf fm "%d rules, %d strata, %d/%d affected positions, %d may-trigger \
             edges, %d null-flow edges"
    (Array.length t.rules) (List.length t.strata)
    (Pos_set.cardinal t.affected)
    (List.length t.positions) (List.length t.fires)
    (List.length t.null_edges)

(** Critical weak/rich acyclicity: exact termination analysis for linear
    TGDs (Theorem 2).

    Plain weak/rich acyclicity is sound but incomplete on linear TGDs with
    repeated body variables: a dangerous cycle in the (extended) dependency
    graph need not be realizable, because a repeated variable requires two
    positions to hold the {e same} term, which a fresh null can never share
    with an older term.  The paper refines the acyclicity tests so that a
    dangerous cycle necessarily corresponds to an infinite derivation; this
    module is our concrete realization of those refinements (the full PODS
    definitions are reconstructed here — see DESIGN.md §6).

    The construction works on the critical instance and abstracts every
    fact by its {!Pattern.t}.  For a linear rule, applicability to a fact
    and the pattern of every produced fact depend only on the fact's
    pattern, so the chase induces a finite {e pattern-transition system}.
    Non-termination is witnessed by a {e productive lasso}:

    - {b oblivious}: a reachable cycle such that, tracking which classes
      hold nulls created inside the cycle ({e taint}), every atom along the
      cycle after the start carries taint — then every traversal produces
      genuinely new atoms, hence new full-homomorphism triggers, forever;
    - {b semi-oblivious}: a reachable cycle of transitions each of whose
      frontier image carries taint — then every traversal produces new
      frontier keys, which is what the semi-oblivious chase deduplicates
      on.

    Every lasso found is {e confirmed} by concretely instantiating the
    start pattern and replaying the cycle several laps with real fresh
    nulls, checking that atoms (oblivious) or frontier keys
    (semi-oblivious) keep being new; a confirmed pump is a sound
    non-termination certificate (any repetition would have been caught by
    the second lap).  When no pump is confirmed, termination is settled
    by the chase of the critical instance itself — run by the caller
    ([Chase_termination.Linear]) under its own limits, not here. *)

open Chase_logic

(* ------------------------------------------------------------------ *)
(* Transitions of the pattern system                                   *)
(* ------------------------------------------------------------------ *)

(** Provenance of a child-pattern class. *)
type source =
  | From_parent of int  (** copied from this parent class (a null class) *)
  | Fresh  (** an existential variable: a fresh null *)
  | Cst of string  (** a constant (from the rule or a constant class) *)

(** One pattern-level chase step: rule [rule_idx], producing the
    [head_idx]-th head atom. *)
type transition = {
  rule_idx : int;
  head_idx : int;
  child : Pattern.t;
  sources : source array;  (** provenance of each child class *)
  frontier_classes : int list;
      (** parent classes holding the images of the rule's frontier
          variables (null classes only; constant images never make a
          frontier key new) *)
  creates_null : bool;
}

(** [match_body rule_body pattern] maps each body variable to the parent
    class it is bound to, if the single body atom matches a fact with this
    pattern. *)
let match_body body_atom (p : Pattern.t) : (string * int) list option =
  if
    (not (String.equal (Atom.pred body_atom) (Pattern.pred p)))
    || Atom.arity body_atom <> Pattern.arity p
  then None
  else begin
    let bindings = Hashtbl.create 8 in
    let ok = ref true in
    Array.iteri
      (fun i t ->
        if !ok then
          let cls = Pattern.class_of p i in
          match t with
          | Term.Var v -> (
            match Hashtbl.find_opt bindings v with
            | None -> Hashtbl.add bindings v cls
            | Some cls' -> if cls <> cls' then ok := false)
          | Term.Const c -> (
            match Pattern.label_of p cls with
            | Pattern.Lconst c' -> if not (String.equal c c') then ok := false
            | Pattern.Lnull -> ok := false)
          | Term.Null _ -> ok := false)
      (Atom.args body_atom);
    if !ok then Some (Hashtbl.fold (fun v c acc -> (v, c) :: acc) bindings [])
    else None
  end

(* Symbolic term of a head position, used to canonicalize the child
   pattern.  A frontier variable bound to a constant-labelled class is the
   constant itself. *)
type sym =
  | S_parent of int
  | S_fresh of string
  | S_const of string

let sym_of_head_arg (parent : Pattern.t) var_class t =
  match t with
  | Term.Const c -> S_const c
  | Term.Var v -> (
    match List.assoc_opt v var_class with
    | Some cls -> (
      match Pattern.label_of parent cls with
      | Pattern.Lconst c -> S_const c
      | Pattern.Lnull -> S_parent cls)
    | None -> S_fresh v (* existential *))
  | Term.Null _ -> invalid_arg "Critical_linear: null in rule head"

(** Child pattern and class provenance for one head atom. *)
let child_of parent var_class head_atom =
  let n = Atom.arity head_atom in
  let classes = Array.make n (-1) in
  let sources = ref [] in
  let labels = ref [] in
  let next = ref 0 in
  let seen = Hashtbl.create 8 in
  Array.iteri
    (fun i t ->
      let s = sym_of_head_arg parent var_class t in
      match Hashtbl.find_opt seen s with
      | Some c -> classes.(i) <- c
      | None ->
        let c = !next in
        incr next;
        Hashtbl.add seen s c;
        classes.(i) <- c;
        (match s with
        | S_parent cls ->
          sources := From_parent cls :: !sources;
          labels := Pattern.Lnull :: !labels
        | S_fresh _ ->
          sources := Fresh :: !sources;
          labels := Pattern.Lnull :: !labels
        | S_const cst ->
          sources := Cst cst :: !sources;
          labels := Pattern.Lconst cst :: !labels))
    (Atom.args head_atom);
  let child =
    {
      Pattern.pred = Atom.pred head_atom;
      classes;
      labels = Array.of_list (List.rev !labels);
    }
  in
  (child, Array.of_list (List.rev !sources))

(** All transitions out of a pattern. *)
let transitions_of rules (p : Pattern.t) : transition list =
  List.concat
    (List.mapi
       (fun rule_idx r ->
         match Tgd.body r with
         | [ body_atom ] -> (
           match match_body body_atom p with
           | None -> []
           | Some var_class ->
             let frontier_classes =
               Util.Sset.fold
                 (fun v acc ->
                   match List.assoc_opt v var_class with
                   | Some cls when Pattern.label_of p cls = Pattern.Lnull ->
                     cls :: acc
                   | Some _ | None -> acc)
                 (Tgd.frontier r) []
               |> List.sort_uniq Int.compare
             in
             List.mapi
               (fun head_idx head_atom ->
                 let child, sources = child_of p var_class head_atom in
                 {
                   rule_idx;
                   head_idx;
                   child;
                   sources;
                   frontier_classes;
                   creates_null = Array.exists (fun s -> s = Fresh) sources;
                 })
               (Tgd.head r))
         | _ -> invalid_arg "Critical_linear: rules must be linear")
       rules)

(* ------------------------------------------------------------------ *)
(* Reachable patterns                                                  *)
(* ------------------------------------------------------------------ *)

(** Patterns of the critical-instance facts. *)
let initial_patterns ?(poll = ignore) ~constants rules =
  let schema = Schema.of_rules rules in
  let cs = Array.of_list constants in
  let k = Array.length cs in
  let acc = ref Pattern.Set.empty in
  List.iter
    (fun (p, n) ->
      let args = Array.make n cs.(if k > 0 then 0 else 0) in
      let rec go i =
        if i >= n then begin
          poll ();
          acc := Pattern.Set.add (Pattern.of_terms p args) !acc
        end
        else
          for j = 0 to k - 1 do
            args.(i) <- cs.(j);
            go (i + 1)
          done
      in
      if n = 0 then acc := Pattern.Set.add (Pattern.of_terms p [||]) !acc
      else go 0)
    (Schema.to_list schema);
  !acc

(** BFS closure of the initial patterns under transitions. *)
let reachable_patterns ?(poll = ignore) ~constants rules =
  let seen = ref (initial_patterns ~poll ~constants rules) in
  let queue = Queue.create () in
  Pattern.Set.iter (fun p -> Queue.add p queue) !seen;
  while not (Queue.is_empty queue) do
    poll ();
    let p = Queue.pop queue in
    List.iter
      (fun tr ->
        if not (Pattern.Set.mem tr.child !seen) then begin
          seen := Pattern.Set.add tr.child !seen;
          Queue.add tr.child queue
        end)
      (transitions_of rules p)
  done;
  !seen

(* ------------------------------------------------------------------ *)
(* Taint product search                                                *)
(* ------------------------------------------------------------------ *)

module Iset = Set.Make (Int)

module Pstate = struct
  type t = Pattern.t * Iset.t

  let compare (p1, t1) (p2, t2) =
    let c = Pattern.compare p1 p2 in
    if c <> 0 then c else Iset.compare t1 t2
end

module Pstate_set = Set.Make (Pstate)
module Pstate_map = Map.Make (Pstate)

(** Taint of the child given taint of the parent: fresh classes are
    tainted; copied classes inherit the parent class's taint. *)
let child_taint tr parent_taint =
  let acc = ref Iset.empty in
  Array.iteri
    (fun c src ->
      match src with
      | Fresh -> acc := Iset.add c !acc
      | From_parent pc -> if Iset.mem pc parent_taint then acc := Iset.add c !acc
      | Cst _ -> ())
    tr.sources;
  !acc

type certificate = {
  start : Pattern.t;
  cycle : transition list;  (** the confirmed pumping cycle *)
  laps_checked : int;
}

let pp_certificate rules fm cert =
  let rules = Array.of_list rules in
  let pp_step fm tr =
    Fmt.pf fm "%a [head %d] ~> %a"
      Tgd.pp rules.(tr.rule_idx) tr.head_idx Pattern.pp tr.child
  in
  Fmt.pf fm "@[<v>pump from %a:@ %a@]" Pattern.pp cert.start
    (Util.pp_list "" (fun fm tr -> Fmt.pf fm "%a@ " pp_step tr))
    cert.cycle

(* --- concrete replay ---------------------------------------------- *)

(** A concrete replay of pattern steps with real fresh nulls: the start
    pattern instantiated, and the step function — match [tr]'s single
    body atom on a fact, bind a fresh null per existential, and build the
    head atom [tr] produces, returned with the rule and the realizing
    substitution.  [None] when the body does not match the fact. *)
let replay rules start =
  let rules = Array.of_list rules in
  let counter = ref 0 in
  let fresh_null () =
    incr counter;
    Term.Null !counter
  in
  let start_fact = Pattern.instantiate ~fresh_null start in
  let step tr fact =
    let r = rules.(tr.rule_idx) in
    let body_atom = match Tgd.body r with [ a ] -> a | _ -> assert false in
    Option.map
      (fun sub ->
        let sub =
          Util.Sset.fold
            (fun z acc -> Subst.bind_exn acc z (fresh_null ()))
            (Tgd.existentials r) sub
        in
        (r, sub, Subst.apply_atom sub (List.nth (Tgd.head r) tr.head_idx)))
      (Hom.match_atom Subst.empty body_atom fact)
  in
  (start_fact, step)

(** Replay [cycle] from a concrete instantiation of [start] for [laps]
    laps, and check that after the first lap every step stays productive:
    new atoms for the oblivious chase, new frontier keys for the
    semi-oblivious chase.  Returns [true] when the pump is confirmed; a
    confirmed pump is a sound witness of non-termination (a new atom/key
    each step can never be exhausted). *)
let confirm ~semi rules ~start ~cycle ~laps =
  let start_fact, step = replay rules start in
  let atom = ref start_fact in
  let seen_atoms = Atom.Tbl.create 64 in
  let seen_keys = Hashtbl.create 64 in
  Atom.Tbl.replace seen_atoms !atom ();
  let ok = ref true in
  for lap = 1 to laps do
    if !ok then
      List.iter
        (fun tr ->
          if !ok then
            match step tr !atom with
            | None -> ok := false (* should not happen: patterns matched *)
            | Some (r, sub, produced) ->
              let frontier_key =
                (tr.rule_idx, Subst.to_list (Subst.restrict sub (Tgd.frontier r)))
              in
              let key_new = not (Hashtbl.mem seen_keys frontier_key) in
              Hashtbl.replace seen_keys frontier_key ();
              let atom_new = not (Atom.Tbl.mem seen_atoms produced) in
              Atom.Tbl.replace seen_atoms produced ();
              if lap >= 2 && not (if semi then key_new else atom_new) then
                ok := false;
              atom := produced)
        cycle
  done;
  !ok && Pattern.equal (Pattern.of_atom !atom) start

(* --- concrete realization ------------------------------------------ *)

(** The concrete evidence behind a certificate: one lap of the pump
    replayed with real fresh nulls. *)
type realization = {
  facts : Atom.t list;
      (** the instantiated start fact followed by the fact produced by
          each cycle step, in order *)
  first_subst : Subst.t;
      (** the realizing substitution of the first cycle step: body match
          plus fresh nulls for the existentials *)
}

(** Replay one lap of a {e confirmed} certificate, returning the fact
    chain and the realizing substitution of the first step.  Every step
    of a confirmed cycle matches by construction; a step that fails to
    match (an unconfirmed, hand-built certificate) is skipped. *)
let realize rules cert =
  let start_fact, step = replay rules cert.start in
  let atom = ref start_fact in
  let facts = ref [ start_fact ] in
  let first_subst = ref None in
  List.iter
    (fun tr ->
      match step tr !atom with
      | None -> ()
      | Some (_, sub, produced) ->
        if Option.is_none !first_subst then first_subst := Some sub;
        facts := produced :: !facts;
        atom := produced)
    cert.cycle;
  {
    facts = List.rev !facts;
    first_subst = Option.value !first_subst ~default:Subst.empty;
  }

(* --- the lasso search ---------------------------------------------- *)

(** Product states reachable from some [(π, ∅)], π a reachable pattern,
    under every transition, in set order. *)
let product_states ~poll transitions reachable =
  let seen = ref Pstate_set.empty in
  let queue = Queue.create () in
  let visit st =
    if not (Pstate_set.mem st !seen) then begin
      seen := Pstate_set.add st !seen;
      Queue.add st queue
    end
  in
  Pattern.Set.iter (fun p -> visit (p, Iset.empty)) reachable;
  while not (Queue.is_empty queue) do
    poll ();
    let p, taint = Queue.pop queue in
    List.iter (fun tr -> visit (tr.child, child_taint tr taint)) (transitions p)
  done;
  Pstate_set.elements !seen

(** Lasso search over product states (pattern, taint), by iterative
    deepening so that short pumping cycles are collected and confirmed
    before the simple-path space explodes at larger depths.  The two
    chases differ in four places:

    - edge filter — oblivious: the child's taint is non-empty, so every
      atom along the cycle carries within-cycle nulls; semi-oblivious:
      the transition's frontier image touches the taint, so every step
      produces a new frontier key;
    - closing test — oblivious: back at the start pattern;
      semi-oblivious: back at the start product state;
    - start states — oblivious: [(π, ∅)] for every reachable π;
      semi-oblivious: every product state reachable from those, the
      non-productive prefix playing the first lap of the pump (taint
      originates in Fresh sources, so a fresh-null creation feeds every
      productive cycle);
    - laps replayed by {!confirm}: 4 or 5.

    From each start, a DFS enumerates (boundedly many) simple product
    paths — visited-set pruning could hide a confirmable cycle behind a
    shorter unconfirmable path through the same states — collects the
    closing ones and confirms them shortest-first, so a short genuine
    pump is never drowned out by a flood of longer spurious closings. *)
let search ~poll ~semi rules reachable =
  let trans_cache = Hashtbl.create 64 in
  let transitions p =
    match Hashtbl.find_opt trans_cache p with
    | Some ts -> ts
    | None ->
      let ts = transitions_of rules p in
      Hashtbl.add trans_cache p ts;
      ts
  in
  let productive taint tr taint' =
    if semi then List.exists (fun c -> Iset.mem c taint) tr.frontier_classes
    else not (Iset.is_empty taint')
  in
  let closes start st =
    if semi then Pstate.compare st start = 0
    else Pattern.equal (fst st) (fst start)
  in
  let laps = if semi then 5 else 4 in
  let starts =
    if semi then product_states ~poll transitions reachable
    else List.map (fun p -> (p, Iset.empty)) (Pattern.Set.elements reachable)
  in
  let max_collect = 4_000 in
  let max_confirm = 1_000 in
  let try_start start max_depth =
    let candidates = ref [] in
    let n = ref 0 in
    (* A pump may revisit the same product state mid-cycle (two chase
       facts with the same pattern and taint profile at different points
       of the loop), so paths may pass through each state up to twice. *)
    let visits st on_path =
      Option.value (Pstate_map.find_opt st on_path) ~default:0
    in
    let rec dfs (p, taint) on_path path depth =
      poll ();
      if depth < max_depth && !n < max_collect then
        List.iter
          (fun tr ->
            if !n < max_collect then begin
              let taint' = child_taint tr taint in
              if productive taint tr taint' then begin
                let st = (tr.child, taint') in
                let path = tr :: path in
                if closes start st then begin
                  incr n;
                  candidates := List.rev path :: !candidates
                end;
                let v = visits st on_path in
                if v < 2 then
                  dfs st (Pstate_map.add st (v + 1) on_path) path (depth + 1)
              end
            end)
          (transitions p)
    in
    dfs start (Pstate_map.singleton start 1) [] 0;
    let by_length =
      List.stable_sort
        (fun c1 c2 -> Int.compare (List.length c1) (List.length c2))
        (List.rev !candidates)
    in
    let start = fst start in
    List.find_map
      (fun cycle ->
        poll ();
        if confirm ~semi rules ~start ~cycle ~laps then
          Some { start; cycle; laps_checked = laps }
        else None)
      (List.filteri (fun i _ -> i < max_confirm) by_length)
  in
  List.find_map
    (fun depth -> List.find_map (fun start -> try_start start depth) starts)
    [ 3; 6; 10; 16 ]

exception Interrupted of Chase_engine.Limits.breach

let find_pump ~semi ?(standard = true) ?limits rules =
  if not (Chase_classes.Classify.is_linear rules) then
    invalid_arg "Critical_linear: rule set is not linear";
  let constants = Chase_engine.Critical.constants_for ~standard rules in
  (* The deadline and the token are read on the first poll and then on
     every 64th: each poll is one critical fact's pattern, one expanded
     pattern or product state, one search node or one confirmed
     candidate. *)
  let poll =
    match limits with
    | None -> ignore
    | Some l ->
      let monitor = Chase_engine.Limits.Monitor.start l in
      let n = ref 0 in
      fun () ->
        if !n land 63 = 0 then
          Option.iter
            (fun b -> raise (Interrupted b))
            (Chase_engine.Limits.Monitor.interrupted monitor);
        incr n
  in
  match search ~poll ~semi rules (reachable_patterns ~poll ~constants rules) with
  | found -> Ok found
  | exception Interrupted breach -> Error breach

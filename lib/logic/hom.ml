(** Homomorphism search: matching conjunctions of atoms into instances.

    Two matchers share the same backtracking core:

    - the {b naive} matcher processes body atoms left to right, probing
      the (predicate, position, term) index at the {e first} determined
      position — the reference implementation, kept verbatim as the
      normative semantics (DESIGN.md);
    - the {b planned} matcher asks {!Plan} for a selectivity-ordered
      permutation of the body and probes the {e smallest} index at each
      step, using the O(1) cardinality statistics of {!Instance}.

    Both enumerate the same substitution set (the property suite pins
    this); only the enumeration order and the work done differ.  The
    top-level entry points ({!iter}, {!iter_seeded}, {!all}, {!exists},
    {!find}) dispatch on the process-wide {!matcher} selection: planned
    unless {!set_matcher} selected the naive reference. *)

(** [match_atom sub pat fact] extends [sub] so that [sub pat = fact];
    [None] if impossible. *)
let match_atom sub pat fact =
  if
    (not (String.equal (Atom.pred pat) (Atom.pred fact)))
    || Atom.arity pat <> Atom.arity fact
  then None
  else
    let n = Atom.arity pat in
    let rec go i sub =
      if i >= n then Some sub
      else
        match Atom.arg pat i with
        | Term.Var v -> (
          match Subst.bind sub v (Atom.arg fact i) with
          | Some sub' -> go (i + 1) sub'
          | None -> None)
        | (Term.Const _ | Term.Null _) as t ->
          if Term.equal t (Atom.arg fact i) then go (i + 1) sub else None
    in
    go 0 sub

(* ------------------------------------------------------------------ *)
(* Search-effort accounting                                            *)
(* ------------------------------------------------------------------ *)

module Stats = struct
  (* Module-level counters, always on.  Plain refs suffice: matching
     runs on one domain, and the service's worker threads are systhreads
     of that domain, which never switch in the middle of an [incr] (it
     neither allocates nor polls), so no count is lost. *)

  type snapshot = {
    probes : int;  (** index probes at a determined position *)
    full_scans : int;  (** predicate scans with no position bound *)
    candidates : int;  (** candidate facts examined by match loops *)
    matches : int;  (** substitutions emitted by [iter]/[iter_seeded] *)
    planned_probe_cost : int;
        (** sum of chosen bucket sizes in best-index probes *)
    naive_probe_cost : int;
        (** what the same probes would have cost at the first determined
            position — the naive policy's estimate *)
  }

  let probes = ref 0
  let full_scans = ref 0
  let candidates = ref 0
  let matches = ref 0
  let planned_probe_cost = ref 0
  let naive_probe_cost = ref 0
  let bump_by c n = c := !c + n

  let snapshot () =
    {
      probes = !probes;
      full_scans = !full_scans;
      candidates = !candidates;
      matches = !matches;
      planned_probe_cost = !planned_probe_cost;
      naive_probe_cost = !naive_probe_cost;
    }

  let diff a b =
    {
      probes = b.probes - a.probes;
      full_scans = b.full_scans - a.full_scans;
      candidates = b.candidates - a.candidates;
      matches = b.matches - a.matches;
      planned_probe_cost = b.planned_probe_cost - a.planned_probe_cost;
      naive_probe_cost = b.naive_probe_cost - a.naive_probe_cost;
    }

  let reset () =
    List.iter
      (fun c -> c := 0)
      [
        probes; full_scans; candidates; matches; planned_probe_cost;
        naive_probe_cost;
      ]

  let candidates_now () = !candidates
end

(* ------------------------------------------------------------------ *)
(* Matcher selection                                                   *)
(* ------------------------------------------------------------------ *)

type matcher = Planned | Naive

let selected = ref Planned

let set_matcher m = selected := m
let matcher () = !selected

(* ------------------------------------------------------------------ *)
(* The naive reference matcher (left-to-right, first bound position)   *)
(* ------------------------------------------------------------------ *)

(** Candidate facts for [pat] under partial substitution [sub], probing
    the index at the first determined position — the reference policy. *)
let candidates ins sub pat =
  let n = Atom.arity pat in
  let rec find_bound i =
    if i >= n then None
    else
      match Atom.arg pat i with
      | Term.Var v -> (
        match Subst.find_opt v sub with
        | Some t -> Some (i, t)
        | None -> find_bound (i + 1))
      | (Term.Const _ | Term.Null _) as t -> Some (i, t)
  in
  match find_bound 0 with
  | Some (i, t) ->
    incr Stats.probes;
    Instance.atoms_matching ins (Atom.pred pat) i t
  | None ->
    incr Stats.full_scans;
    Instance.atoms_of_pred ins (Atom.pred pat)

exception Stop

(** [iter_naive ?init ins pats f] calls [f] on every substitution [s]
    extending [init] with [s pats ⊆ ins]; body atoms left to right. *)
let iter_naive ?(init = Subst.empty) ins pats f =
  let rec go pats sub =
    match pats with
    | [] -> f sub
    | pat :: rest ->
      List.iter
        (fun fact ->
          incr Stats.candidates;
          match match_atom sub pat fact with
          | Some sub' -> go rest sub'
          | None -> ())
        (candidates ins sub pat)
  in
  go pats init

(** [iter_seeded_naive ?init ins pats ~seed f] is like {!iter_naive} but
    only yields substitutions in which at least one body atom is mapped to
    the fact [seed].  This is the semi-naive primitive of the chase
    engine: when a new fact arrives, only homomorphisms using it can be
    new. *)
let iter_seeded_naive ?(init = Subst.empty) ins pats ~seed f =
  let n = List.length pats in
  (* For each choice of the atom pinned to [seed], enumerate the rest, and
     require pinned-position minimality to avoid emitting the same
     substitution once per body atom it maps onto [seed]: the pinned atom
     must be the first body atom mapped to [seed]. *)
  let pats_arr = Array.of_list pats in
  for pin = 0 to n - 1 do
    match match_atom init pats_arr.(pin) seed with
    | None -> ()
    | Some sub0 ->
      let rec go i sub =
        if i >= n then f sub
        else if i = pin then go (i + 1) sub
        else
          List.iter
            (fun fact ->
              incr Stats.candidates;
              if i < pin && Atom.equal fact seed then ()
                (* an earlier atom matching [seed] is handled by a smaller
                   [pin]; skip to avoid duplicates *)
              else
                match match_atom sub pats_arr.(i) fact with
                | Some sub' -> go (i + 1) sub'
                | None -> ())
            (candidates ins sub pats_arr.(i))
      in
      go 0 sub0
  done

(* ------------------------------------------------------------------ *)
(* The planned matcher (selectivity order, smallest index per step)    *)
(* ------------------------------------------------------------------ *)

(** Candidate facts for [pat] under [sub], probing the {e smallest} index
    over all determined positions (O(arity) count lookups, no walks). *)
let candidates_best ins sub pat =
  let p = Atom.pred pat in
  let n = Atom.arity pat in
  let best = ref None in
  (* bucket size at the first determined position: what the naive
     probe policy would have walked — kept for the probe accounting *)
  let first = ref (-1) in
  for i = 0 to n - 1 do
    let t =
      match Atom.arg pat i with
      | Term.Var v -> Subst.find_opt v sub
      | (Term.Const _ | Term.Null _) as t -> Some t
    in
    match t with
    | Some t ->
      let c = Instance.count_matching ins p i t in
      if !first < 0 then first := c;
      (match !best with
      | Some (c0, _, _) when c0 <= c -> ()
      | Some _ | None -> best := Some (c, i, t))
    | None -> ()
  done;
  match !best with
  | Some (c, i, t) ->
    incr Stats.probes;
    Stats.bump_by Stats.planned_probe_cost c;
    Stats.bump_by Stats.naive_probe_cost (if !first >= 0 then !first else c);
    Instance.atoms_matching ins p i t
  | None ->
    incr Stats.full_scans;
    Instance.atoms_of_pred ins p

(* Below this instance size, planning and count probes cost more than the
   bucket walks they avoid: the planned matcher falls back to the naive
   algorithm (the substitution set is the same either way). *)
let plan_threshold = 64

(* Backtracking through [pats_arr] in the order given by [plan], starting
   at plan step [from].  [skip_seed pos fact] implements the pinned-
   position minimality filter of the seeded search (always false for the
   unseeded one). *)
let run_plan ~skip_seed pats_arr plan ~from ins sub0 f =
  let order = Plan.order plan in
  let steps = Array.length order in
  let rec go k sub =
    if k >= steps then f sub
    else
      let pos = order.(k) in
      List.iter
        (fun fact ->
          incr Stats.candidates;
          if skip_seed pos fact then ()
          else
            match match_atom sub pats_arr.(pos) fact with
            | Some sub' -> go (k + 1) sub'
            | None -> ())
        (candidates_best ins sub pats_arr.(pos))
  in
  go from sub0

let no_skip _ _ = false

(** [iter_planned ?init ?plan ins pats f]: same substitution set as
    {!iter_naive}, enumerated through a selectivity-ordered plan
    (computed here unless supplied). *)
let iter_planned ?(init = Subst.empty) ?plan ins pats f =
  match pats with
  | [] -> f init
  | _ when plan = None && Instance.cardinal ins < plan_threshold ->
    iter_naive ~init ins pats f
  | [ pat ] ->
    (* single atom: nothing to order, but still probe the best index *)
    List.iter
      (fun fact ->
        incr Stats.candidates;
        match match_atom init pat fact with Some s -> f s | None -> ())
      (candidates_best ins init pat)
  | _ ->
    let plan =
      match plan with
      | Some p -> p
      | None -> Plan.make ~bound:(Subst.domain init) ins pats
    in
    run_plan ~skip_seed:no_skip (Array.of_list pats) plan ~from:0 ins init f

(** [iter_seeded_planned ?init ins pats ~seed f]: the delta-driven
    rederivation primitive, planned.  For each body atom that matches the
    seed, that atom is pinned first (one candidate: the seed itself) and
    the rest of the body is planned with the pin's variables bound. *)
let iter_seeded_planned ?(init = Subst.empty) ins pats ~seed f =
  if Instance.cardinal ins < plan_threshold then
    iter_seeded_naive ~init ins pats ~seed f
  else begin
  let pats_arr = Array.of_list pats in
  let n = Array.length pats_arr in
  let bound0 = Subst.domain init in
  for pin = 0 to n - 1 do
    match match_atom init pats_arr.(pin) seed with
    | None -> ()
    | Some sub0 ->
      (* pinned-position minimality, as in the naive seeded search: a
         body atom left of the pin must not map onto the seed *)
      let skip_seed pos fact = pos < pin && Atom.equal fact seed in
      let plan = Plan.seeded ~bound:bound0 ins pats ~pin in
      run_plan ~skip_seed pats_arr plan ~from:1 ins sub0 f
  done
  end

(* ------------------------------------------------------------------ *)
(* Dispatching entry points                                            *)
(* ------------------------------------------------------------------ *)

(** [iter ?init ins pats f] calls [f] on every substitution [s] extending
    [init] with [s pats ⊆ ins], through the selected matcher. *)
let iter ?init ins pats f =
  let f s =
    incr Stats.matches;
    f s
  in
  match matcher () with
  | Planned -> iter_planned ?init ins pats f
  | Naive -> iter_naive ?init ins pats f

(** [iter_seeded ?init ins pats ~seed f] is like [iter] but only yields
    substitutions in which at least one body atom is mapped to the fact
    [seed].  Each qualifying substitution is produced exactly once. *)
let iter_seeded ?init ins pats ~seed f =
  let f s =
    incr Stats.matches;
    f s
  in
  match matcher () with
  | Planned -> iter_seeded_planned ?init ins pats ~seed f
  | Naive -> iter_seeded_naive ?init ins pats ~seed f

let all ?init ins pats =
  let acc = ref [] in
  iter ?init ins pats (fun s -> acc := s :: !acc);
  List.rev !acc

let exists ?init ins pats =
  try
    iter ?init ins pats (fun _ -> raise Stop);
    false
  with Stop -> true

(** [find ?init ins pats] is the first substitution found, if any. *)
let find ?init ins pats =
  let res = ref None in
  (try iter ?init ins pats (fun s -> res := Some s; raise Stop) with Stop -> ());
  !res

(** [instance_hom src dst] searches for a homomorphism from instance [src]
    to instance [dst]: a map on terms that is the identity on constants,
    maps nulls anywhere, and sends every fact of [src] to a fact of [dst].
    Returns the witness as a term map.  This is the universality test used
    by the model-theory test-suite; it is exponential in the worst case. *)
let instance_hom src dst =
  (* Recast nulls of [src] as variables and reuse the conjunctive matcher. *)
  let var_of_null n = "!null" ^ string_of_int n in
  let as_pattern a =
    Atom.map_terms
      (fun t -> match t with Term.Null n -> Term.Var (var_of_null n) | _ -> t)
      a
  in
  let pats = List.map as_pattern (Instance.to_list src) in
  match find dst pats with
  | None -> None
  | Some sub ->
    let null_of_var v =
      if String.length v > 5 && String.equal (String.sub v 0 5) "!null" then
        int_of_string_opt (String.sub v 5 (String.length v - 5))
      else None
    in
    let map =
      List.fold_left
        (fun acc (v, t) ->
          match null_of_var v with
          | Some n -> Term.Map.add (Term.Null n) t acc
          | None -> acc)
        Term.Map.empty (Subst.to_list sub)
    in
    Some map

(** Homomorphism search: matching conjunctions of atoms into instances.

    One backtracking core ({!search}) binds compiled body atoms
    ({!Template.t}) into a [Term.t] slot array in place, undoing through a
    trail, and records the id of the fact each body atom matched.  Two
    policies drive it:

    - the {b naive} policy binds body atoms left to right, probing the
      (predicate, position, term) index at the {e first} determined
      position — the reference, the normative semantics (DESIGN.md);
    - the {b planned} policy asks {!Plan} for a selectivity-ordered
      permutation of the body and probes the {e smallest} index at each
      step, using the O(1) cardinality statistics of {!Instance}.

    Both enumerate the same binding set (the property suite pins this);
    only the enumeration order and the work done differ.  The chase
    engine takes slot arrays and fact ids straight from {!iter_slots};
    every substitution entry point is a wrapper that compiles its atoms,
    binds [?init] into the slots and builds a substitution per emitted
    binding.  The dispatching entry points ({!iter_slots}, {!iter},
    {!all}, {!exists}) follow the process-wide
    {!matcher} selection: planned unless {!set_matcher} selected the
    naive reference. *)

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
    matches : int;  (** bindings emitted by the dispatching entry points *)
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
(* The backtracking core                                               *)
(* ------------------------------------------------------------------ *)

(* The value of a slot no search has bound.  A fact never holds a
   variable, so no bound value is this one; tests are physical. *)
let unbound = Term.Var "?"

(* One search: the compiled body, the slots it binds in place, the fact
   id matched by each body atom, and the trail of slots bound since the
   search started, so a failed or finished branch unbinds exactly its
   own. *)
type state = {
  ins : Instance.t;
  body : Template.t array;
  slots : Term.t array;
  ids : int array;
  trail : int array;
  mutable top : int;
}

let undo st mark =
  while st.top > mark do
    st.top <- st.top - 1;
    st.slots.(st.trail.(st.top)) <- unbound
  done

(* Extend the slots so that [tp] maps onto a fact with arguments [args],
   from position [j] on.  On [false] some slots may be bound: the caller
   undoes to its mark. *)
let rec bind_from st (tp : Template.t) args j =
  j >= Array.length args
  || (match tp.args.(j) with
     | Template.Fixed t -> Term.equal t args.(j)
     | Template.Slot s ->
       let v = st.slots.(s) in
       if v == unbound then begin
         st.slots.(s) <- args.(j);
         st.trail.(st.top) <- s;
         st.top <- st.top + 1;
         true
       end
       else v == args.(j) || Term.equal v args.(j))
     && bind_from st tp args (j + 1)

let bind st (tp : Template.t) args =
  Array.length tp.args = Array.length args && bind_from st tp args 0

let determined st = function
  | Template.Fixed t -> t
  | Template.Slot s -> st.slots.(s)

(** The reference probe: the index at the first determined position. *)
let probe_first st (tp : Template.t) =
  let n = Array.length tp.args in
  let rec find i =
    if i >= n then begin
      incr Stats.full_scans;
      Instance.pred_bucket st.ins tp.pred
    end
    else
      let t = determined st tp.args.(i) in
      if t == unbound then find (i + 1)
      else begin
        incr Stats.probes;
        Instance.matching_bucket st.ins tp.pred i t
      end
  in
  find 0

(** The planned probe: the {e smallest} index over all determined
    positions (O(arity) size lookups, no walks).  The bucket size at the
    first determined position is what the naive policy would have
    walked; it is kept for the probe accounting. *)
let probe_best st (tp : Template.t) =
  let n = Array.length tp.args in
  let bucket i t = Instance.matching_bucket st.ins tp.pred i t in
  let rec scan i first best c_best =
    if i >= n then begin
      incr Stats.probes;
      Stats.bump_by Stats.planned_probe_cost c_best;
      Stats.bump_by Stats.naive_probe_cost first;
      best
    end
    else
      let t = determined st tp.args.(i) in
      if t == unbound then scan (i + 1) first best c_best
      else
        let b = bucket i t in
        let c = Instance.bucket_size b in
        if c < c_best then scan (i + 1) first b c else scan (i + 1) first best c_best
  in
  let rec start i =
    if i >= n then begin
      incr Stats.full_scans;
      Instance.pred_bucket st.ins tp.pred
    end
    else
      let t = determined st tp.args.(i) in
      if t == unbound then start (i + 1)
      else
        let b = bucket i t in
        let c = Instance.bucket_size b in
        scan (i + 1) c b c
  in
  start 0

(* Below this instance size, planning and count probes cost more than the
   bucket walks they avoid: the planned policy falls back to the naive
   one (the substitution set is the same either way). *)
let plan_threshold = 64

(** [search st ~probe order ~from ~skip emit] binds the body atoms
    [order.(from)], [order.(from+1)], … in turn, each against the facts
    of the bucket [probe] picks for it, newest first, and calls [emit]
    with every complete binding in place.  [skip pos id] drops fact [id]
    as a candidate for body atom [pos] (the seeded search's minimality
    filter). *)
let search st ~probe order ~from ~skip emit =
  let steps = Array.length order in
  let rec go k =
    if k >= steps then emit ()
    else begin
      let pos = order.(k) in
      let tp = st.body.(pos) in
      let b = probe st tp in
      for j = Instance.bucket_size b - 1 downto 0 do
        let id = Instance.bucket_id b j in
        incr Stats.candidates;
        if not (skip pos id) then begin
          let mark = st.top in
          if bind st tp (Atom.args (Instance.fact st.ins id)) then begin
            st.ids.(pos) <- id;
            go (k + 1)
          end;
          undo st mark
        end
      done
    end
  in
  go from

let no_skip _ _ = false

let bound_slots st = Array.map (fun v -> v != unbound) st.slots

(* Every binding of the whole body.  The naive policy goes left to
   right; the planned one follows [plan] (or plans here), except on
   small instances and one-atom bodies, where there is nothing to gain. *)
let run_all policy ?plan st emit =
  let n = Array.length st.body in
  match policy with
  | Planned when n = 0 -> emit ()
  | Planned when plan <> None || Instance.cardinal st.ins >= plan_threshold ->
    let order =
      if n = 1 then [| 0 |]
      else
        match plan with
        | Some p -> Plan.order p
        | None -> Plan.order (Plan.of_templates ~bound:(bound_slots st) st.ins st.body)
    in
    search st ~probe:probe_best order ~from:0 ~skip:no_skip emit
  | Planned | Naive ->
    search st ~probe:probe_first (Array.init n Fun.id) ~from:0 ~skip:no_skip emit

(* Every binding that maps at least one body atom onto [seed], each once:
   for each body atom [pin] that matches the seed, the pin is bound to it
   first and the rest of the body is searched, where a body atom left of
   the pin may not map onto the seed (a smaller pin produced that
   binding).  [seed_id] is the seed's fact id. *)
let run_seeded policy st ~seed ~seed_id emit =
  let n = Array.length st.body in
  let planned = policy = Planned && Instance.cardinal st.ins >= plan_threshold in
  for pin = 0 to n - 1 do
    let tp = st.body.(pin) in
    let mark = st.top in
    if String.equal tp.pred (Atom.pred seed) && bind st tp (Atom.args seed) then begin
      st.ids.(pin) <- seed_id;
      let skip pos id = pos < pin && id = seed_id in
      if planned then
        let plan = Plan.of_templates ~bound:(bound_slots st) ~pin st.ins st.body in
        search st ~probe:probe_best (Plan.order plan) ~from:1 ~skip emit
      else
        let order = Array.init n (fun k -> if k = 0 then pin else if k <= pin then k - 1 else k) in
        search st ~probe:probe_first order ~from:1 ~skip emit
    end;
    undo st mark
  done

let start ins body slots =
  let ids = Array.make (Array.length body) (-1) in
  { ins; body; slots; ids; trail = Array.make (Array.length slots) 0; top = 0 }

let iter_slots ?seed ins body ~slots emit =
  let st = start ins body slots in
  let emit () =
    incr Stats.matches;
    emit st.ids
  in
  match seed with
  | None -> run_all !selected st emit
  | Some id -> run_seeded !selected st ~seed:(Instance.fact ins id) ~seed_id:id emit

(* ------------------------------------------------------------------ *)
(* Substitution entry points                                           *)
(* ------------------------------------------------------------------ *)

(* Run [core] over [pats] compiled on their variables in name order, with
   [init] bound into the slots; each binding it emits reaches [f] as the
   substitution extending [init]. *)
let via_subst core ?(init = Subst.empty) ins pats f =
  let vars, body = Template.compile_all pats in
  let slots =
    Array.map (fun v -> Option.value (Subst.find_opt v init) ~default:unbound) vars
  in
  let free = List.filter (fun i -> slots.(i) == unbound) (List.init (Array.length vars) Fun.id) in
  core (start ins body slots) (fun () ->
      f (List.fold_left (fun s i -> Subst.bind_exn s vars.(i) slots.(i)) init free))

let iter_naive ?init ins = via_subst (run_all Naive) ?init ins
let iter_planned ?init ?plan ins = via_subst (run_all Planned ?plan) ?init ins
let seeded policy ?init ins pats ~seed =
  via_subst (run_seeded policy ~seed ~seed_id:(Instance.id_of ins seed)) ?init ins pats

let iter_seeded_naive = seeded Naive
let iter_seeded_planned = seeded Planned

let counted f s =
  incr Stats.matches;
  f s

(** [iter ?init ins pats f] calls [f] on every substitution [s] extending
    [init] with [s pats ⊆ ins], through the selected matcher. *)
let iter ?init ins pats f =
  match matcher () with
  | Planned -> iter_planned ?init ins pats (counted f)
  | Naive -> iter_naive ?init ins pats (counted f)

exception Stop
exception Found of Subst.t

let all ?init ins pats =
  let acc = ref [] in
  iter ?init ins pats (fun s -> acc := s :: !acc);
  List.rev !acc

let exists ?init ins pats =
  try
    iter ?init ins pats (fun _ -> raise Stop);
    false
  with Stop -> true

let exists_slots ins body ~slots =
  try
    iter_slots ins body ~slots (fun _ -> raise Stop);
    false
  with Stop -> true

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
  match iter dst pats (fun s -> raise (Found s)) with
  | () -> None
  | exception Found sub ->
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

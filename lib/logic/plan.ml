(** Join plans: selectivity-ordered permutations of a rule body.

    Greedy smallest-estimate-first ordering.  For every not-yet-chosen
    atom we estimate how many candidate facts the instance would offer
    it, given the variables bound so far:

    - a position holding a constant (or null) has an {e exact} bucket
      size, [Instance.count_matching];
    - a position holding a variable bound by an earlier atom will be
      looked up in the same index, but the term is unknown at planning
      time, so we use the average bucket size at that position,
      [count_of_pred / distinct_at];
    - an atom with no determined position can only be scanned whole:
      [count_of_pred].

    The estimate of an atom is the minimum over its determined positions
    (the matcher probes exactly one index).  Ties break towards the
    original body order, which keeps planning deterministic and makes the
    plan the identity permutation on bodies the statistics cannot
    distinguish.  All statistics are O(1) ({!Instance}), so planning a
    body of n atoms costs O(n²) arithmetic — negligible against even one
    avoided bucket walk. *)

type t = {
  order : int array;  (** order.(k) = original body index matched at step k *)
}

module Stats = struct
  (* Always-on planning-effort counters, mirroring [Hom.Stats]. *)
  let plans = ref 0
  let estimates = ref 0

  type snapshot = { plans : int; estimates : int }

  let snapshot () = { plans = !plans; estimates = !estimates }

  let diff (a : snapshot) (b : snapshot) =
    { plans = b.plans - a.plans; estimates = b.estimates - a.estimates }

  let reset () =
    plans := 0;
    estimates := 0
end

let order t = t.order
let length t = Array.length t.order

let atoms t body =
  let arr = Array.of_list body in
  Array.to_list (Array.map (fun i -> arr.(i)) t.order)

let is_permutation t =
  let n = Array.length t.order in
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Plan.is_permutation: not a permutation";
      seen.(i) <- true)
    t.order;
  n

(** Smallest candidate-count estimate for [a] over its determined
    positions, given [bound] variables; [count_of_pred] if none. *)
let estimate ?(bound = Util.Sset.empty) ins a =
  incr Stats.estimates;
  let p = Atom.pred a in
  let full = Instance.count_of_pred ins p in
  let best = ref full in
  Array.iteri
    (fun i t ->
      let e =
        match t with
        | Term.Const _ | Term.Null _ -> Some (Instance.count_matching ins p i t)
        | Term.Var v ->
          if Util.Sset.mem v bound then
            (* unknown term: average bucket size at this position *)
            let d = Instance.distinct_at ins p i in
            if d = 0 then Some 0 else Some ((full + d - 1) / d)
          else None
      in
      match e with Some e when e < !best -> best := e | _ -> ())
    (Atom.args a);
  !best

let vars_of a = Atom.var_set a

(* Greedy selection over the remaining atoms; [fixed] indices are already
   placed (the seeded pin).  O(n²) estimate calls, all O(1). *)
let plan_greedy ~bound ins body_arr placed =
  incr Stats.plans;
  let n = Array.length body_arr in
  if n - List.length placed <= 1 then
    (* nothing to order: the permutation is forced *)
    { order =
        Array.of_list
          (placed
          @ List.filter
              (fun i -> not (List.mem i placed))
              (List.init n (fun i -> i)));
    }
  else begin
  let chosen = Array.make n false in
  List.iter (fun i -> chosen.(i) <- true) placed;
  let bound = ref bound in
  List.iter
    (fun i -> bound := Util.Sset.union (vars_of body_arr.(i)) !bound)
    placed;
  let out = ref (List.rev placed) in
  for _ = 1 to n - List.length placed do
    let best = ref (-1) in
    let best_cost = ref max_int in
    for i = 0 to n - 1 do
      if not chosen.(i) then begin
        let c = estimate ~bound:!bound ins body_arr.(i) in
        (* strict [<]: ties keep the earliest body index *)
        if c < !best_cost then begin
          best := i;
          best_cost := c
        end
      end
    done;
    chosen.(!best) <- true;
    bound := Util.Sset.union (vars_of body_arr.(!best)) !bound;
    out := !best :: !out
  done;
  { order = Array.of_list (List.rev !out) }
  end

let make ?(bound = Util.Sset.empty) ins body =
  plan_greedy ~bound ins (Array.of_list body) []

let seeded ?(bound = Util.Sset.empty) ins body ~pin =
  let body_arr = Array.of_list body in
  if pin < 0 || pin >= Array.length body_arr then
    invalid_arg "Plan.seeded: pin out of range";
  plan_greedy ~bound ins body_arr [ pin ]

let pp fm t =
  Fmt.pf fm "[%a]"
    (Fmt.list ~sep:(Fmt.any " ") Fmt.int)
    (Array.to_list t.order)

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
    positions, given which slots are [bound]; [count_of_pred] if none. *)
let estimate bound ins (a : Template.t) =
  incr Stats.estimates;
  let p = a.pred in
  let full = Instance.count_of_pred ins p in
  let best = ref full in
  Array.iteri
    (fun i arg ->
      let e =
        match arg with
        | Template.Fixed t -> Some (Instance.count_matching ins p i t)
        | Template.Slot s ->
          if bound.(s) then
            (* unknown term: average bucket size at this position *)
            let d = Instance.distinct_at ins p i in
            if d = 0 then Some 0 else Some ((full + d - 1) / d)
          else None
      in
      match e with Some e when e < !best -> best := e | _ -> ())
    a.args;
  !best

let bind_slots bound (a : Template.t) =
  Array.iter (function Template.Slot s -> bound.(s) <- true | Fixed _ -> ()) a.args

(** [of_templates ~bound ?pin ins body]: greedy selection over the atoms
    not yet placed (the [pin], if any, goes first).  [bound] marks the
    slots determined before the search starts; it is not modified.
    O(n²) estimate calls, all O(1). *)
let of_templates ~bound ?pin ins body_arr =
  let n = Array.length body_arr in
  (match pin with
  | Some p when p < 0 || p >= n -> invalid_arg "Plan.of_templates: pin out of range"
  | _ -> ());
  incr Stats.plans;
  let placed = Option.to_list pin in
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
  let bound = Array.copy bound in
  List.iter
    (fun i ->
      chosen.(i) <- true;
      bind_slots bound body_arr.(i))
    placed;
  let out = ref (List.rev placed) in
  for _ = 1 to n - List.length placed do
    let best = ref (-1) in
    let best_cost = ref max_int in
    for i = 0 to n - 1 do
      if not chosen.(i) then begin
        let c = estimate bound ins body_arr.(i) in
        (* strict [<]: ties keep the earliest body index *)
        if c < !best_cost then begin
          best := i;
          best_cost := c
        end
      end
    done;
    chosen.(!best) <- true;
    bind_slots bound body_arr.(!best);
    out := !best :: !out
  done;
  { order = Array.of_list (List.rev !out) }
  end

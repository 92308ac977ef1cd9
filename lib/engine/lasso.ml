(** Lasso certificates and their finder.  The checker reads only Σ,
    crit(Σ)'s constants and the certificate; DESIGN.md §3.13 has the
    proof that an accepted certificate means divergence. *)

open Chase_logic

type record = { rule : int; vals : Term.t array }

type t = {
  records : record array;
  lasso : int list;
  shift : (Term.t * Term.t) list;
  step : int;
}

exception Reject of string

let reject fmt = Fmt.kstr (fun s -> raise (Reject s)) fmt
let body c r = Array.map (Template.instantiate r.vals) c.Trigger.body
let heads c r = Array.map (Template.instantiate r.vals) c.Trigger.head
let created c r = Array.sub r.vals c.Trigger.n_body (Array.length r.vals - c.Trigger.n_body)

(* The variant key of a record; only the body slots are read. *)
let key variant c r =
  Trigger.key variant c (Trigger.make c (Array.sub r.vals 0 c.Trigger.n_body) ~depth:0)

let rule_name rules i =
  match Tgd.name (List.nth rules i) with "" -> Fmt.str "rule#%d" (i + 1) | n -> n

(* Check 1: R replays from crit(Σ) as a chase sequence of [variant]. *)
let check_derivation ~standard ~variant rules compiled records =
  let schema = Schema.of_rules rules in
  let constants = Term.Set.of_list (Critical.constants_for ~standard rules) in
  let is_crit a =
    Schema.arity_opt schema (Atom.pred a) = Some (Atom.arity a)
    && Array.for_all (fun x -> Term.Set.mem x constants) (Atom.args a)
  in
  let derived = Atom.Tbl.create 64 in
  let nulls = Hashtbl.create 64 in
  let keys = Trigger.Tbl.create 64 in
  Array.iteri
    (fun i r ->
      if r.rule < 0 || r.rule >= Array.length compiled then
        reject "check 1: record %d names no rule of Σ" i;
      let c = compiled.(r.rule) in
      if Array.length r.vals <> Array.length c.Trigger.vars then
        reject "check 1: record %d binds %d slots, its rule has %d" i
          (Array.length r.vals) (Array.length c.Trigger.vars);
      Array.iter
        (fun b ->
          if not (is_crit b || Atom.Tbl.mem derived b) then
            reject
              "check 1: record %d: body fact %a is neither a fact of crit(Σ) nor \
               a head fact of an earlier record"
              i Atom.pp b)
        (body c r);
      Array.iter
        (fun n ->
          if Term.is_null n && not (Hashtbl.mem nulls n) then Hashtbl.add nulls n ()
          else reject "check 1: record %d: existential slot holds %a, not a new null" i Term.pp n)
        (created c r);
      let k = key variant c r in
      if Trigger.Tbl.mem keys k then
        reject "check 1: record %d repeats the %a key of an earlier record" i Variant.pp variant;
      Trigger.Tbl.add keys k ();
      Array.iter (fun a -> Atom.Tbl.replace derived a ()) (heads c r))
    records

let check_lasso ~variant compiled cert =
  let n = Array.length cert.records in
  if cert.lasso = [] then reject "the lasso S is empty";
  List.iter (fun i -> if i < 0 || i >= n then reject "lasso index %d is not a record" i) cert.lasso;
  if List.length (List.sort_uniq Int.compare cert.lasso) <> List.length cert.lasso then
    reject "the lasso S lists a record twice";
  let s = Array.of_list (List.map (fun i -> cert.records.(i)) cert.lasso) in
  let rule r = compiled.(r.rule) in
  (* Check 2: h is a function, fixes constants, and covers S's bodies. *)
  let h =
    List.fold_left
      (fun m (x, y) ->
        if Term.is_const x && not (Term.equal x y) then
          reject "check 2: h moves the constant %a" Term.pp x;
        match Term.Map.find_opt x m with
        | Some y' when not (Term.equal y y') -> reject "check 2: h maps %a twice" Term.pp x
        | _ -> Term.Map.add x y m)
      Term.Map.empty cert.shift
  in
  let defined x = Term.is_const x || Term.Map.mem x h in
  let apply x = if Term.is_const x then x else Term.Map.find x h in
  let bodies = Array.map (fun r -> body (rule r) r) s in
  let body_terms =
    Array.fold_left
      (Array.fold_left (fun acc b -> Term.Set.union (Atom.term_set b) acc))
      Term.Set.empty bodies
  in
  Term.Set.iter
    (fun x -> if not (defined x) then reject "check 2: h is undefined on %a" Term.pp x)
    body_terms;
  (* Check 3: every body fact of S is fixed or shifted onto a head of S. *)
  let s_heads = Atom.Tbl.create 16 in
  Array.iter (fun r -> Array.iter (fun a -> Atom.Tbl.replace s_heads a ()) (heads (rule r) r)) s;
  Array.iter
    (Array.iter (fun b ->
         let b' = Atom.map_terms apply b in
         if not (Atom.equal b b' || Atom.Tbl.mem s_heads b') then
           reject "check 3: h(%a) = %a is neither the fact itself nor a head fact of S"
             Atom.pp b Atom.pp b'))
    bodies;
  (* Check 4: the nulls of S that S reads shift onto the nulls of the
     shifted trigger, which S contains. *)
  Array.iteri
    (fun j r ->
      let c = rule r in
      let made = created c r in
      if Array.exists (fun x -> Term.Set.mem x body_terms) made then begin
        let shifted = { r with vals = Array.map apply (Array.sub r.vals 0 c.Trigger.n_body) } in
        let k = key variant c shifted in
        match Array.find_opt (fun r' -> Trigger.equal (key variant (rule r') r') k) s with
        | None -> reject "check 4: S lacks the shift of its trigger %d" j
        | Some r' ->
          let made' = created c r' in
          Array.iteri
            (fun z x ->
              if defined x && not (Term.equal (apply x) made'.(z)) then
                reject "check 4: h(%a) = %a, not the shifted trigger's null %a" Term.pp x
                  Term.pp (apply x) Term.pp made'.(z))
            made
      end)
    s;
  (* Check 5: t → t' when a frontier slot of t holds x with h(x) a null
     created by t'; the graph needs a cycle. *)
  let creator = Hashtbl.create 16 in
  Array.iteri (fun j r -> Array.iter (fun x -> Hashtbl.replace creator x j) (created (rule r) r)) s;
  let succ j =
    let r = s.(j) in
    Array.to_list (rule r).Trigger.frontier
    |> List.filter_map (fun f -> Hashtbl.find_opt creator (apply r.vals.(f)))
  in
  let state = Array.make (Array.length s) `New in
  let rec cyclic j =
    match state.(j) with
    | `Open -> true
    | `Done -> false
    | `New ->
      state.(j) <- `Open;
      let c = List.exists cyclic (succ j) in
      state.(j) <- `Done;
      c
  in
  let rec any j = j < Array.length s && (cyclic j || any (j + 1)) in
  if not (any 0) then
    reject "check 5: no frontier slot of S shifts onto a null S created along a cycle"

let check ?(standard = true) ~variant rules cert =
  try
    (match (variant : Variant.t) with
    | Restricted -> reject "check 6: the restricted chase admits no lasso certificate"
    | Oblivious | Semi_oblivious -> ());
    let compiled = Array.of_list (List.mapi Trigger.compile rules) in
    check_derivation ~standard ~variant rules compiled cert.records;
    check_lasso ~variant compiled cert;
    Ok ()
  with Reject msg -> Error msg

let body_facts rules cert =
  let compiled = Array.of_list (List.mapi Trigger.compile rules) in
  let h = List.fold_left (fun m (x, y) -> Term.Map.add x y m) Term.Map.empty cert.shift in
  let apply x = Option.value ~default:x (Term.Map.find_opt x h) in
  let facts =
    List.concat_map
      (fun i ->
        let r = cert.records.(i) in
        Array.to_list (body compiled.(r.rule) r))
      cert.lasso
  in
  (facts, List.map (Atom.map_terms apply) facts)

let pp rules fm cert =
  let facts, shifted = body_facts rules cert in
  Fmt.pf fm "%a: %a ⇝ %a"
    (Util.pp_list ", " Fmt.string)
    (List.map (fun i -> rule_name rules cert.records.(i).rule) cert.lasso)
    (Util.pp_list ", " Atom.pp) facts (Util.pp_list ", " Atom.pp) shifted

(* ------------------------------------------------------------------ *)
(* The finder                                                          *)
(* ------------------------------------------------------------------ *)

type watch = {
  standard : bool;
  variant : Variant.t;
  rules : Tgd.t list;
  compiled : Trigger.rule array;
  mutable records : record array;
  mutable parents : int array array;
      (** per record, the record that created each body fact, or -1 for
          a fact of crit(Σ) *)
  mutable n : int;
  creator : int Atom.Tbl.t;
  mutable found : t option;
}

let watch ?(standard = true) ~variant rules =
  {
    standard;
    variant;
    rules;
    compiled = Array.of_list (List.mapi Trigger.compile rules);
    records = [||];
    parents = [||];
    n = 0;
    creator = Atom.Tbl.create 1024;
    found = None;
  }

let found w = w.found

let push w r parents =
  if w.n = Array.length w.records then begin
    let cap = max 256 (2 * w.n) in
    let grow a fill = Array.append a (Array.make (cap - w.n) fill) in
    w.records <- grow w.records r;
    w.parents <- grow w.parents parents
  end;
  w.records.(w.n) <- r;
  w.parents.(w.n) <- parents;
  w.n <- w.n + 1;
  w.n - 1

(* The records p's body facts need, transitively, with p: a derivation
   from crit(Σ) in application order. *)
let ancestry w p =
  let seen = Hashtbl.create 64 in
  let stack = ref [ p ] in
  while !stack <> [] do
    let i = List.hd !stack in
    stack := List.tl !stack;
    if i >= 0 && not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      Array.iter (fun j -> stack := j :: !stack) w.parents.(i)
    end
  done;
  let ids = List.sort Int.compare (Hashtbl.fold (fun i () acc -> i :: acc) seen []) in
  Array.of_list (List.map (fun i -> w.records.(i)) ids)

(* The one-rule lasso S = {p}, h = σ_p ↦ σ_t, when checks 2, 3 and 5
   hold for it; [check] then re-checks it whole, with its ancestry. *)
let one_lap c p t =
  let h = Hashtbl.create 8 in
  let consistent = ref true in
  for k = 0 to c.Trigger.n_body - 1 do
    let x = p.vals.(k) and y = t.vals.(k) in
    if Term.is_const x then consistent := !consistent && Term.equal x y
    else
      match Hashtbl.find_opt h x with
      | Some y' -> consistent := !consistent && Term.equal y y'
      | None -> Hashtbl.add h x y
  done;
  let heads = heads c p and made = created c p in
  if
    !consistent
    && Array.for_all2
         (fun b b' -> Atom.equal b b' || Array.exists (Atom.equal b') heads)
         (body c p) (body c t)
    && Array.exists (fun f -> Array.mem t.vals.(f) made) c.Trigger.frontier
  then Some (List.sort (fun (x, _) (y, _) -> Term.compare x y) (List.of_seq (Hashtbl.to_seq h)))
  else None

let observe w ~step ~rule_index ~depth:_ ~created_nulls _ sub added =
  if added <> [] && w.found = None then begin
    let c = w.compiled.(rule_index) in
    let nulls = Array.of_list created_nulls in
    let vals =
      Array.init (Array.length c.Trigger.vars) (fun k ->
          if k < c.Trigger.n_body then Option.get (Subst.find_opt c.Trigger.vars.(k) sub)
          else Term.Null nulls.(k - c.Trigger.n_body))
    in
    let t = { rule = rule_index; vals } in
    let parents =
      Array.map
        (fun b -> Option.value ~default:(-1) (Atom.Tbl.find_opt w.creator b))
        (body c t)
    in
    let id = push w t parents in
    List.iter (fun a -> Atom.Tbl.replace w.creator a id) added;
    if Array.length nulls > 0 then
      List.iter
        (fun p ->
          if w.found = None && p >= 0 && w.records.(p).rule = rule_index then
            match one_lap c w.records.(p) t with
            | None -> ()
            | Some shift ->
              let records = ancestry w p in
              let cert =
                { records; lasso = [ Array.length records - 1 ]; shift; step }
              in
              if Result.is_ok (check ~standard:w.standard ~variant:w.variant w.rules cert)
              then w.found <- Some cert)
        (List.sort_uniq Int.compare (Array.to_list parents))
  end

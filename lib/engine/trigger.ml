open Chase_logic

type rule = {
  index : int;
  tgd : Tgd.t;
  vars : string array;
  n_body : int;
  frontier : int array;
  body : Template.t array;
  head : Template.t array;
  guard : int option;
}

let compile index tgd =
  let elements f = Util.Sset.elements (f tgd) in
  let vars = Array.of_list (elements Tgd.body_vars @ elements Tgd.existentials) in
  let slot v =
    let rec go i = if String.equal vars.(i) v then i else go (i + 1) in
    go 0
  in
  let templates l = Array.of_list (List.map (Template.compile vars) l) in
  let body = Tgd.body tgd in
  {
    index;
    tgd;
    vars;
    n_body = Util.Sset.cardinal (Tgd.body_vars tgd);
    frontier = Array.of_list (List.map slot (elements Tgd.frontier));
    body = templates body;
    head = templates (Tgd.head tgd);
    guard =
      Option.bind (Chase_classes.Classify.guard_of tgd) (fun g ->
          List.find_index (( == ) g) body);
  }

type t = { rule : int; vals : Term.t array; hash : int; depth : int }

let hashed rule vals depth =
  { rule; vals; hash = Util.hash_fold_array Term.hash rule vals; depth }

let make c vals ~depth = hashed c.index vals depth

let key (variant : Variant.t) c tr =
  match variant with
  | Oblivious | Restricted -> tr
  | Semi_oblivious -> hashed tr.rule (Array.map (Array.get tr.vals) c.frontier) 0

let compare t1 t2 = Util.array_compare Term.compare t1.vals t2.vals
let equal t1 t2 = t1.rule = t2.rule && Util.array_for_all2 Term.equal t1.vals t2.vals

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = t.hash
end)

let bind c vals s i = Subst.bind_exn s c.vars.(i) vals.(i)
let to_subst c vals = Seq.fold_left (bind c vals) Subst.empty (Seq.init c.n_body Fun.id)
let frontier_subst c tr = Array.fold_left (bind c tr.vals) Subst.empty c.frontier

let extend c tr ~fresh =
  let n = Array.length c.vars in
  (* [Array.init] applies its function in index order: nulls in slot order *)
  if n = c.n_body then tr.vals
  else Array.init n (fun i -> if i < c.n_body then tr.vals.(i) else Term.Null (fresh ()))

let nulls c vals =
  List.init (Array.length vals - c.n_body) (fun k ->
      match vals.(c.n_body + k) with Term.Null id -> id | _ -> invalid_arg "Trigger.nulls")

let frontier_slots c tr =
  let slots = Array.make (Array.length c.vars) Chase_logic.Hom.unbound in
  Array.iter (fun s -> slots.(s) <- tr.vals.(s)) c.frontier;
  slots

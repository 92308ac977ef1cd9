open Chase_logic

type arg = Fixed of Term.t | Slot of int
type template = { pred : string; args : arg array }

type rule = {
  index : int;
  tgd : Tgd.t;
  vars : string array;
  n_body : int;
  frontier : int array;
  body : template list;
  head : template list;
  guard : int option;
}

let compile index tgd =
  let elements f = Util.Sset.elements (f tgd) in
  let vars = Array.of_list (elements Tgd.body_vars @ elements Tgd.existentials) in
  let slot v =
    let rec go i = if String.equal vars.(i) v then i else go (i + 1) in
    go 0
  in
  let template a =
    let arg = function Term.Var v -> Slot (slot v) | t -> Fixed t in
    { pred = Atom.pred a; args = Array.map arg (Atom.args a) }
  in
  let body = Tgd.body tgd in
  {
    index;
    tgd;
    vars;
    n_body = Util.Sset.cardinal (Tgd.body_vars tgd);
    frontier = Array.of_list (List.map slot (elements Tgd.frontier));
    body = List.map template body;
    head = List.map template (Tgd.head tgd);
    guard =
      Option.bind (Chase_classes.Classify.guard_of tgd) (fun g ->
          List.find_index (( == ) g) body);
  }

type t = { rule : int; vals : Term.t array; hash : int }

let make rule vals = { rule; vals; hash = Util.hash_fold_array Term.hash rule vals }

let of_subst c sub =
  if Subst.cardinal sub <> c.n_body then invalid_arg "Trigger.of_subst";
  make c.index
    (Array.init c.n_body (fun i -> Option.get (Subst.find_opt c.vars.(i) sub)))

let key (variant : Variant.t) c tr =
  match variant with
  | Oblivious | Restricted -> tr
  | Semi_oblivious -> make tr.rule (Array.map (Array.get tr.vals) c.frontier)

let compare t1 t2 = Util.array_compare Term.compare t1.vals t2.vals
let equal t1 t2 = t1.rule = t2.rule && Util.array_for_all2 Term.equal t1.vals t2.vals

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = t.hash
end)

let bind c tr s i = Subst.bind_exn s c.vars.(i) tr.vals.(i)
let to_subst c tr = Seq.fold_left (bind c tr) Subst.empty (Seq.init c.n_body Fun.id)
let frontier_subst c tr = Array.fold_left (bind c tr) Subst.empty c.frontier

let extend c tr ~fresh =
  (* [List.init] evaluates left to right: nulls in existential order *)
  let created = List.init (Array.length c.vars - c.n_body) (fun _ -> fresh ()) in
  if created = [] then (tr.vals, created)
  else
    let nulls = List.map (fun id -> Term.Null id) created in
    (Array.append tr.vals (Array.of_list nulls), created)

let instantiate vals t =
  Atom.make t.pred (Array.map (function Fixed t -> t | Slot i -> vals.(i)) t.args)

(** Instances: mutable, indexed sets of facts (variable-free atoms).

    The chase engine spends essentially all of its time adding atoms and
    enumerating candidate atoms for body matching, so besides the
    membership table each predicate keeps a bucket of its facts and one
    [Term.hash]-keyed table per argument position, used to narrow matching
    when a body atom already has a bound argument (and no table by term
    alone: {!atoms_containing} reads these).  Every fact gets a dense
    id when it is added (0, 1, … in insertion order); buckets are growable
    arrays of ids that the matcher walks newest first, and a position
    table's size is its number of distinct terms, so the join planner's
    statistics ({!Plan}) are O(1) and never walk a bucket. *)

module Term_tbl = Hashtbl.Make (Term)

type bucket = {
  mutable ids : int array;  (** fact ids, oldest first; [n] are in use *)
  mutable n : int;
}

type pred_index = {
  facts : bucket;
  mutable at_pos : bucket Term_tbl.t array;  (** grows with the arity seen *)
}

type t = {
  all : int Atom.Tbl.t;  (** membership: fact → id *)
  mutable by_id : Atom.t array;  (** id → fact; [size] are in use *)
  by_pred : (string, pred_index) Hashtbl.t;
  mutable size : int;
}

let dummy = Atom.make "" [||]

let create ?(initial_capacity = 256) () =
  {
    all = Atom.Tbl.create initial_capacity;
    by_id = Array.make (max 1 initial_capacity) dummy;
    by_pred = Hashtbl.create 32;
    size = 0;
  }

let mem ins a = Atom.Tbl.mem ins.all a
let cardinal ins = ins.size
let fact ins id = ins.by_id.(id)
let id_of ins a = Option.value (Atom.Tbl.find_opt ins.all a) ~default:(-1)

(* Doubling append.  A reader that took [b.n] before a push still reads
   the same first [n] ids: they are copied, never overwritten. *)
let push b id =
  if b.n = Array.length b.ids then begin
    let ids = Array.make (max 4 (2 * b.n)) 0 in
    Array.blit b.ids 0 ids 0 b.n;
    b.ids <- ids
  end;
  b.ids.(b.n) <- id;
  b.n <- b.n + 1

let push_at tbl t id =
  match Term_tbl.find_opt tbl t with
  | Some b -> push b id
  | None -> Term_tbl.add tbl t { ids = [| id |]; n = 1 }

(** [add ins a] inserts [a]; returns [true] iff the atom is new, in which
    case its id is [cardinal ins - 1].  Raises [Invalid_argument] if [a]
    contains a variable. *)
let add ins a =
  if not (Atom.is_fact a) then invalid_arg "Instance.add: atom contains a variable";
  if Atom.Tbl.mem ins.all a then false
  else begin
    let id = ins.size in
    Atom.Tbl.add ins.all a id;
    if id = Array.length ins.by_id then begin
      let by_id = Array.make (2 * id) dummy in
      Array.blit ins.by_id 0 by_id 0 id;
      ins.by_id <- by_id
    end;
    ins.by_id.(id) <- a;
    ins.size <- id + 1;
    let args = Atom.args a and p = Atom.pred a in
    let pi =
      match Hashtbl.find_opt ins.by_pred p with
      | Some pi -> pi
      | None ->
        let pi = { facts = { ids = [||]; n = 0 }; at_pos = [||] } in
        Hashtbl.add ins.by_pred p pi;
        pi
    in
    let grow = Array.length args - Array.length pi.at_pos in
    if grow > 0 then
      pi.at_pos <-
        Array.append pi.at_pos (Array.init grow (fun _ -> Term_tbl.create 16));
    push pi.facts id;
    Array.iteri (fun i t -> push_at pi.at_pos.(i) t id) args;
    true
  end

let add_all ins atoms = List.iter (fun a -> ignore (add ins a)) atoms

let of_list atoms =
  let ins = create () in
  add_all ins atoms;
  ins

(* Sentinels for absent keys; never mutated ([add] makes its own entries). *)
let no_facts = { ids = [||]; n = 0 }
let no_pred = { facts = no_facts; at_pos = [||] }
let no_terms = Term_tbl.create 1
let pred ins p = Option.value (Hashtbl.find_opt ins.by_pred p) ~default:no_pred

let at_pos ins p i =
  let pi = pred ins p in
  if i >= 0 && i < Array.length pi.at_pos then pi.at_pos.(i) else no_terms

let lookup tbl t = Option.value (Term_tbl.find_opt tbl t) ~default:no_facts

(* ---- Buckets of fact ids (the matcher's view) ---- *)

let pred_bucket ins p = (pred ins p).facts
let matching_bucket ins p i t = lookup (at_pos ins p i) t
let bucket_size b = b.n
let bucket_id b j = b.ids.(j)

(* Newest first: every list the instance returns is. *)
let atoms_of_bucket ins b =
  let rec go j acc = if j >= b.n then acc else go (j + 1) (ins.by_id.(b.ids.(j)) :: acc) in
  go 0 []

let atoms_of_pred ins p = atoms_of_bucket ins (pred_bucket ins p)

(** [atoms_matching ins p i t] are the atoms of predicate [p] whose [i]-th
    argument is exactly the term [t]. *)
let atoms_matching ins p i t = atoms_of_bucket ins (matching_bucket ins p i t)

(** [atoms_containing ins t] are the atoms in which term [t] occurs: the
    union of [t]'s positional buckets, newest first. *)
let atoms_containing ins t =
  let add acc tbl = let b = lookup tbl t in List.init b.n (Array.get b.ids) @ acc in
  let ids = Hashtbl.fold (fun _ pi acc -> Array.fold_left add acc pi.at_pos) ins.by_pred [] in
  List.map (fact ins) (List.sort_uniq (fun i j -> Int.compare j i) ids)

(* ---- O(1) cardinality accessors (the planner's statistics) ---- *)

let count_of_pred ins p = (pred ins p).facts.n
let count_matching ins p i t = (matching_bucket ins p i t).n
let distinct_at ins p i = Term_tbl.length (at_pos ins p i)

let iter f ins = Atom.Tbl.iter (fun a _ -> f a) ins.all
let fold f ins init = Atom.Tbl.fold (fun a _ acc -> f a acc) ins.all init
let to_list ins = fold (fun a acc -> a :: acc) ins []
let to_sorted_list ins = List.sort Atom.compare (to_list ins)

(** All predicates with at least one fact, with their arities. *)
let predicates ins =
  Hashtbl.fold
    (fun p pi acc ->
      let b = pi.facts in
      if b.n = 0 then acc else (p, Atom.arity ins.by_id.(b.ids.(b.n - 1))) :: acc)
    ins.by_pred []

(** The set of all terms occurring in the instance. *)
let term_set ins =
  fold (fun a acc -> Term.Set.union (Atom.term_set a) acc) ins Term.Set.empty

(** Number of distinct nulls occurring in the instance. *)
let null_count ins =
  Term.Set.cardinal (Term.Set.filter Term.is_null (term_set ins))

let pp fm ins =
  Fmt.pf fm "@[<v>%a@]" (Util.pp_list "" (fun fm a -> Fmt.pf fm "%a.@ " Atom.pp a))
    (to_sorted_list ins)

let to_string ins = Fmt.str "%a" pp ins

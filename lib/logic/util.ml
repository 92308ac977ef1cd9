(** Shared small utilities for the logic substrate. *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

(** [list_compare cmp xs ys] is the lexicographic extension of [cmp]. *)
let rec list_compare cmp xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = cmp x y in
    if c <> 0 then c else list_compare cmp xs' ys'

(* The array helpers below sit on the chase's per-trigger path (trigger
   and atom hashing, comparison, equality), so they loop without
   allocating a closure per call. *)

let rec compare_from cmp a b i =
  if i >= Array.length a then 0
  else
    let c = cmp a.(i) b.(i) in
    if c <> 0 then c else compare_from cmp a b (i + 1)

(** [array_compare cmp a b] compares arrays lexicographically (shorter first). *)
let array_compare cmp a b =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from cmp a b 0

let rec for_all2_from p a b i =
  i >= Array.length a || (p a.(i) b.(i) && for_all2_from p a b (i + 1))

(** [array_for_all2 p a b] checks [p a.(i) b.(i)] for all i; false on length
    mismatch. *)
let array_for_all2 p a b =
  Array.length a = Array.length b && for_all2_from p a b 0

(** Combine two hash values (FNV-style mixing). *)
let hash_combine h1 h2 = (h1 * 16777619) lxor h2

let hash_fold_array hash init arr =
  let h = ref init in
  for i = 0 to Array.length arr - 1 do
    h := hash_combine !h (hash arr.(i))
  done;
  !h

(** [pp_list sep pp] pretty-prints a list with separator string [sep]. *)
let pp_list sep pp = Fmt.list ~sep:(fun fm () -> Fmt.string fm sep) pp

(** Tarjan's strongly-connected-components algorithm over nodes
    [0 … n-1] with successor lists [succs]: the component id of every
    node and the number of components.  Components are numbered in
    reverse topological order (sinks first). *)
let scc ~n succs =
  let index = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      (succs v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strong v
  done;
  (comp, !ncomp)

type arg = Fixed of Term.t | Slot of int
type t = { pred : string; args : arg array }

let compile vars a =
  let slot v =
    let rec go i =
      if i >= Array.length vars then raise Not_found
      else if String.equal vars.(i) v then i
      else go (i + 1)
    in
    go 0
  in
  let arg = function Term.Var v -> Slot (slot v) | t -> Fixed t in
  { pred = Atom.pred a; args = Array.map arg (Atom.args a) }

let compile_all atoms =
  let vars =
    Array.of_list
      (Util.Sset.elements
         (List.fold_left (fun s a -> Util.Sset.union (Atom.var_set a) s) Util.Sset.empty atoms))
  in
  (vars, Array.of_list (List.map (compile vars) atoms))

(* A loop, not [Array.map]: no closure per atom on the chase's hot path. *)
let instantiate vals t =
  let n = Array.length t.args in
  let args = Array.make n Term.(Const "") in
  for j = 0 to n - 1 do
    args.(j) <- (match t.args.(j) with Fixed t -> t | Slot i -> vals.(i))
  done;
  Atom.make t.pred args

(** Directed graphs over integer nodes, with normal and special edges.

    This is the substrate shared by the acyclicity tests: weak and rich
    acyclicity both ask whether some {e special} edge lies on a cycle,
    which we answer with Tarjan's strongly-connected-components algorithm —
    a special edge u ⇒ v lies on a cycle iff u and v belong to the same
    SCC (the edge itself closes the path from v back to u). *)

type edge = {
  src : int;
  dst : int;
  special : bool;
}

type t = {
  size : int;
  mutable edges : edge list;
  adj : (int * bool) list array;  (** adjacency: (dst, special) *)
}

let create size = { size; edges = []; adj = Array.make size [] }
let size g = g.size
let edges g = g.edges

let add_edge g ~src ~dst ~special =
  if src < 0 || src >= g.size || dst < 0 || dst >= g.size then
    invalid_arg "Digraph.add_edge: node out of range";
  g.edges <- { src; dst; special } :: g.edges;
  g.adj.(src) <- (dst, special) :: g.adj.(src)

let successors g u = g.adj.(u)

(** Tarjan's algorithm ({!Chase_logic.Util.scc}); returns the component
    id of every node.  Components are numbered in reverse topological
    order. *)
let scc g =
  fst (Chase_logic.Util.scc ~n:g.size (fun v -> List.map fst g.adj.(v)))

(** A special edge on a cycle, if any. *)
let dangerous_edge g =
  let comp = scc g in
  List.find_opt (fun e -> e.special && comp.(e.src) = comp.(e.dst)) g.edges

let has_dangerous_cycle g = Option.is_some (dangerous_edge g)

(** [path g u v] is some edge path from [u] to [v] (BFS, shortest), if one
    exists; [Some []] when [u = v]. *)
let path g u v =
  if u = v then Some []
  else begin
    let pred = Array.make g.size None in
    let visited = Array.make g.size false in
    visited.(u) <- true;
    let q = Queue.create () in
    Queue.add u q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let x = Queue.pop q in
      List.iter
        (fun (y, special) ->
          if not visited.(y) then begin
            visited.(y) <- true;
            pred.(y) <- Some ({ src = x; dst = y; special });
            if y = v then found := true else Queue.add y q
          end)
        g.adj.(x)
    done;
    if not !found then None
    else begin
      let rec build acc node =
        match pred.(node) with
        | None -> acc
        | Some e -> if e.src = u then e :: acc else build (e :: acc) e.src
      in
      Some (build [] v)
    end
  end

(** A cycle through some special edge, as an edge list starting with the
    special edge, if any exists. *)
let dangerous_cycle g =
  match dangerous_edge g with
  | None -> None
  | Some e -> (
    match path g e.dst e.src with
    | Some back -> Some (e :: back)
    | None -> None (* unreachable: same SCC guarantees a path *))

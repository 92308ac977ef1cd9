(** Shared small utilities for the logic substrate. *)

module Sset : module type of Set.Make (String)
module Smap : module type of Map.Make (String)

val list_compare : ('a -> 'a -> int) -> 'a list -> 'a list -> int
(** Lexicographic extension of a comparison. *)

val array_compare : ('a -> 'a -> int) -> 'a array -> 'a array -> int
(** Lexicographic on arrays, shorter first. *)

val array_for_all2 : ('a -> 'b -> bool) -> 'a array -> 'b array -> bool
(** Pointwise check; [false] on a length mismatch. *)

val hash_combine : int -> int -> int
(** Combine two hash values (FNV-style mixing). *)

val hash_fold_array : ('a -> int) -> int -> 'a array -> int

val pp_list :
  string -> (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit
(** [pp_list sep pp] pretty-prints a list with separator string [sep]. *)

val scc : n:int -> (int -> int list) -> int array * int
(** Tarjan's algorithm over nodes [0 … n-1] with successor lists
    [succs]: the component id of every node and the number of
    components, numbered in reverse topological order (sinks first). *)

(** Compiled atoms: an atom whose variables are replaced by slot numbers.

    A template is the form in which {!Hom}'s backtracking core and the
    chase engine's compiled rules hold body and head atoms: each argument
    is either a fixed term (a constant, or a null) or the index of a slot
    in a [Term.t] array that the search binds. *)

type arg =
  | Fixed of Term.t
  | Slot of int

type t = { pred : string; args : arg array }

val compile : string array -> Atom.t -> t
(** [compile vars a]: variable [vars.(i)] becomes [Slot i].
    @raise Not_found if a variable of [a] is not in [vars]. *)

val compile_all : Atom.t list -> string array * t array
(** The atoms' variables in name order, and each atom compiled over them. *)

val instantiate : Term.t array -> t -> Atom.t
(** The atom with every slot replaced by its value. *)

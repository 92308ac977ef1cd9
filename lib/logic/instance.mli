(** Instances: mutable, indexed sets of facts (variable-free atoms).

    Every fact gets a dense id when it is added: 0, 1, … in insertion
    order.  Besides the membership table the representation keeps a
    per-predicate bucket and a per-(predicate, position, term) index used
    to narrow body matching; there is no index by term alone.  Buckets
    hold fact ids; every list they are read into is newest first. *)

type t

val create : ?initial_capacity:int -> unit -> t

val mem : t -> Atom.t -> bool
val cardinal : t -> int

val add : t -> Atom.t -> bool
(** [add ins a] inserts [a]; [true] iff the fact is new, in which case
    its id is [cardinal ins - 1].
    @raise Invalid_argument if [a] contains a variable. *)

val fact : t -> int -> Atom.t
(** The fact with the given id. *)

val id_of : t -> Atom.t -> int
(** The id of a fact, or [-1] if it is not in the instance. *)

val add_all : t -> Atom.t list -> unit
val of_list : Atom.t list -> t

val atoms_of_pred : t -> string -> Atom.t list
val atoms_matching : t -> string -> int -> Term.t -> Atom.t list
(** Facts of the predicate whose [i]-th argument is exactly the term. *)

val atoms_containing : t -> Term.t -> Atom.t list
(** Facts in which the term occurs, newest first (one positional index
    lookup per predicate and position). *)

(** {1 Buckets of fact ids}

    The matcher's view of the indexes.  A bucket lists ids oldest first
    at indices [0 .. bucket_size - 1]; adding facts never changes the ids
    already there, so a reader that took the size first may keep reading
    while the instance grows. *)

type bucket

val pred_bucket : t -> string -> bucket
val matching_bucket : t -> string -> int -> Term.t -> bucket
val bucket_size : bucket -> int
val bucket_id : bucket -> int -> int

(** {1 Statistics} *)

val count_of_pred : t -> string -> int
(** Number of facts of the predicate; O(1). *)

val count_matching : t -> string -> int -> Term.t -> int
(** [count_matching ins p i t] is [List.length (atoms_matching ins p i t)]
    without walking the bucket; O(1).  The planner's exact statistic for
    constant-bound positions. *)

val distinct_at : t -> string -> int -> int
(** Number of distinct terms occurring at position [i] of predicate [p];
    O(1).  [count_of_pred ins p / distinct_at ins p i] estimates the
    average bucket size at a position whose term is not yet known — the
    planner's statistic for variable-bound positions. *)

val iter : (Atom.t -> unit) -> t -> unit
val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Atom.t list
val to_sorted_list : t -> Atom.t list

val predicates : t -> (string * int) list
(** Predicates with at least one fact, with arities. *)

val term_set : t -> Term.Set.t
val null_count : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

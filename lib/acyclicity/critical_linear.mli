(** Critical weak/rich acyclicity: the pattern-transition system and the
    lasso search of the linear procedure (Theorem 2).

    Facts of the chase of the critical instance are abstracted by their
    {!Chase_logic.Pattern.t}; for linear rules this abstraction is exact
    for applicability and deterministic for children, so the chase induces
    a finite pattern-transition system.  Non-termination is witnessed by a
    {e productive lasso} — a reachable cycle whose traversals keep
    producing new full-homomorphism triggers (oblivious) or new frontier
    keys (semi-oblivious), tracked through a taint product — and every
    lasso is {e confirmed} by concretely replaying it with fresh nulls
    before being reported.  This module runs no chase: a set without a
    confirmed lasso is settled by the chase of the critical instance
    ([Chase_termination.Linear]).  See DESIGN.md §3.2. *)

open Chase_logic

(** Provenance of a child-pattern class. *)
type source =
  | From_parent of int  (** copied from this parent class (a null class) *)
  | Fresh  (** an existential variable: a fresh null *)
  | Cst of string  (** a constant *)

(** One pattern-level chase step. *)
type transition = {
  rule_idx : int;
  head_idx : int;
  child : Pattern.t;
  sources : source array;  (** provenance of each child class *)
  frontier_classes : int list;
      (** parent null-classes holding images of the rule's frontier *)
  creates_null : bool;
}

val transitions_of : Tgd.t list -> Pattern.t -> transition list
(** All pattern-level steps out of a pattern.
    @raise Invalid_argument if a rule is not linear. *)

val initial_patterns :
  ?poll:(unit -> unit) -> constants:Term.t list -> Tgd.t list -> Pattern.Set.t
(** Patterns of the critical-instance facts; [poll] runs before each
    fact's pattern is added. *)

val reachable_patterns :
  ?poll:(unit -> unit) -> constants:Term.t list -> Tgd.t list -> Pattern.Set.t
(** BFS closure of the initial patterns — exactly the patterns of facts
    occurring in the chase of the critical instance.  [poll] runs before
    each pattern is expanded. *)

type certificate = {
  start : Pattern.t;
  cycle : transition list;  (** the confirmed pumping cycle *)
  laps_checked : int;
}

val pp_certificate : Tgd.t list -> Format.formatter -> certificate -> unit

(** The concrete evidence behind a certificate: one lap of the pump
    replayed with real fresh nulls. *)
type realization = {
  facts : Atom.t list;
      (** the instantiated start fact followed by the fact produced by
          each cycle step, in order *)
  first_subst : Subst.t;
      (** the realizing substitution of the first cycle step: body match
          plus fresh nulls for the existentials *)
}

val realize : Tgd.t list -> certificate -> realization
(** Replay one lap of a confirmed certificate.  The fact chain is the
    machine-checkable witness the diagnostics layer ([W021]) attaches to
    a non-termination verdict. *)

val confirm :
  semi:bool -> Tgd.t list -> start:Pattern.t -> cycle:transition list -> laps:int -> bool
(** Replay the cycle concretely for [laps] laps; [true] when after the
    first lap every step stayed productive (new atoms for the oblivious
    chase when [semi = false], new frontier keys when [semi = true]) and
    the final pattern closed the loop.  A confirmed pump is a sound
    non-termination witness. *)

val find_pump :
  semi:bool ->
  ?standard:bool ->
  ?limits:Chase_engine.Limits.t ->
  Tgd.t list ->
  (certificate option, Chase_engine.Limits.breach) result
(** The lasso search: a productive lasso of the pattern-transition
    system over crit(Σ)'s patterns ([standard], default true, adds the
    constants 0 and 1), confirmed by {!confirm} — oblivious when
    [semi = false] (critical rich acyclicity, 4 laps), semi-oblivious when
    [semi = true] (critical weak acyclicity, 5 laps).  [Some] is a sound
    non-termination certificate; [None] proves nothing by itself: the
    search is a reconstruction (DESIGN.md §6), so termination is settled
    by the chase of the critical instance ([Chase_termination.Linear]).
    [limits]' cancellation token and deadline (counted from the call)
    are polled every 64 search steps; [Error] names the one that
    stopped the search.  No counter budget applies to the search.
    @raise Invalid_argument if the set is not linear. *)

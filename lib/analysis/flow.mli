(** Σ-flow: the shared position-dataflow substrate over rule sets.

    One analysis framework, two consumers (DESIGN.md §3.11):

    - the {e termination} layer builds super-weak acyclicity
      ({!Chase_acyclicity.Super_weak}) and safe stratification
      ({!Chase_strata.Strata}) on top of it;
    - the {e lint} layer renders its summary through [lint --analyze].

    The framework computes, for a rule set Σ:

    - the {e predicate-position} universe and the {e affected-position}
      lattice (Calì–Gottlob–Kifer): positions that can ever hold a
      labelled null during any chase of Σ;
    - Marnette-style {e places} — occurrences of a variable at one
      argument position of one body or head atom — with place
      unification (same position index, atoms syntactically unifiable,
      variable spaces renamed apart, constants rigid) and the
      [Move] closure tracking where the nulls invented for an
      existential variable can travel;
    - two inter-rule relations: [fires] (a head atom of R unifies with
      a body atom of R' — R's output can feed R''s input, refined by
      position/constant compatibility) and [null_edges] (a null
      invented by R can reach {e every} body occurrence of a frontier
      variable of R' and so cause R' to invent a fresh null — the
      super-weak-acyclicity trigger relation).

    All relations are deliberate over-approximations: more edges mean
    strictly weaker sufficient conditions downstream, never unsound
    ones.  This library sits below the acyclicity layer (it depends
    only on the logic substrate), so every layer above — engine,
    acyclicity, termination, analysis — can consume it. *)

open Chase_logic

type position = string * int
(** A predicate-position: (predicate, 0-based argument index). *)

module Pos_set : Set.S with type elt = position

type side =
  | Body
  | Head

type place = {
  rule : int;  (** rule index in input order *)
  side : side;
  atom : int;  (** atom index within that side, in rule order *)
  pos : int;  (** 0-based argument position *)
}
(** One argument position of one atom occurrence of one rule. *)

type null_edge = {
  src : int;  (** the rule inventing the null *)
  dst : int;  (** the rule the null can re-trigger *)
  existential : string;  (** the existential variable of [src] *)
  frontier : string;  (** the frontier variable of [dst] it feeds *)
  landing : position;  (** a head position of [existential] — where the
                           invented null first lands *)
}
(** An edge of the super-weak-acyclicity trigger relation. *)

type t

val build : Tgd.t list -> t
(** Analyze a rule set.  Total: never raises, even on rule sets a
    schema check would reject (positions are keyed by (pred, index), so
    arity clashes just widen the universe). *)

val rules : t -> Tgd.t array
val positions : t -> position list
(** The position universe, sorted. *)

val affected : t -> position list
(** The affected positions, sorted: existential landing sites closed
    under frontier-variable propagation (a head position of x joins
    when every body position of x is already affected). *)

val affected_set : t -> Pos_set.t

val place_atom : t -> place -> Atom.t
val place_position : t -> place -> position
val pp_place : t -> Format.formatter -> place -> unit
(** Renders as [pred[i]@rule#k:body] — stable, witness-friendly. *)

val places_of_var : t -> rule:int -> side -> string -> place list
(** The places where a variable occurs on one side of a rule. *)

val place_unifies : t -> place -> place -> bool
(** [place_unifies t p q] — same argument position and the two atom
    occurrences unify (variable spaces kept apart; constants only unify
    with themselves; existential variables are treated as plain
    variables, a sound over-approximation of skolem-term unification). *)

val move : t -> place list -> place list
(** Marnette's [Move]: the least superset [P] of the given head places
    closed under — for every rule σ and frontier variable x of σ, if
    every body place of x unifies with some place of [P], then the head
    places of x join [P]. *)

val fires : t -> (int * int) list
(** The may-trigger relation, deduplicated and sorted: (r, r') when
    some head atom of rule r unifies with some body atom of rule r'. *)

val null_edges : t -> null_edge list
(** The super-weak-acyclicity trigger relation: (σ, σ') when a null
    invented for an existential of σ can reach every body occurrence of
    a frontier variable of σ' (via [move]), making σ' invent nulls in
    turn.  Acyclicity of this relation is checked by
    {!Chase_acyclicity.Super_weak}. *)

val strata : t -> int list list
(** The condensation of [fires]: rule indices grouped into strongly
    connected components, in topological order (producers before
    consumers), ascending within each stratum.  Rules in stratum [k]
    can only be (re-)triggered by rules in strata [<= k]. *)

val stratum_of : t -> int array
(** Per-rule stratum index into {!strata}. *)

val pp_summary : Format.formatter -> t -> unit
(** A short human summary: strata / affected positions / edge counts. *)

(** Named parametric rule-set families: the paper's running examples, the
    separating examples behind Theorems 1 and 2, and scalable families
    for the complexity-shape experiments. *)

open Chase_logic

val example1 : Tgd.t list
(** person(X) → ∃Y hasFather(X,Y) ∧ person(Y) — diverges everywhere. *)

val example2 : Tgd.t list
(** p(X,Y) → ∃Z p(Y,Z) — diverges under o and so. *)

val separator : Tgd.t list
(** p(X,Y) → ∃Z p(X,Z) — WA but not RA: o diverges, so terminates. *)

val thm2_counterexample : Tgd.t list
(** p(X,X) → ∃Z p(X,Z) — dangerous cycle, yet terminating. *)

val sl_chain : int -> Tgd.t list
(** Richly acyclic chain of n rules. *)

val sl_cycle : int -> Tgd.t list
(** The chain closed into a dangerous cycle — diverges. *)

val sl_cycle_benign : int -> Tgd.t list
(** A cycle that is WA but not RA at every length n. *)

val linear_blocked : arity:int -> Tgd.t list
(** Repeated-variable body, broken by the head: terminating despite a
    dangerous cycle (Theorem 2's phenomenon, any arity ≥ 2). *)

val linear_rotating : arity:int -> Tgd.t list
(** p(X₁,…,Xk) → ∃Z p(X₂,…,Xk,Z): divergent at every arity ≥ 1. *)

val mfa_incomplete_witness : Tgd.t list
(** A linear, so-terminating set that is {e not} model-faithfully acyclic
    — MFA builds a cyclic skolem term that the chase can never reuse. *)

val guarded_divergent : arity:int -> Tgd.t list
(** r(X̄), m(Xk) → ∃Z r(X₂..Xk,Z) ∧ m(Z): properly guarded, divergent
    under o and so.
    @raise Invalid_argument if [arity < 2]: at arity 1 the frontier is
    empty and the semi-oblivious chase stops after one trigger. *)

val guarded_terminating : arity:int -> Tgd.t list
val guarded_tower : levels:int -> Tgd.t list
(** Terminating guarded cascade of growing chase depth. *)

val restricted_separator : Tgd.t list
(** e(X,Y) → ∃Z e(Y,Z) ∧ e(Z,Y): o/so diverge, restricted terminates. *)

val restricted_divergent : Tgd.t list
val single_head_chain : int -> Tgd.t list

val wide_body : width:int -> Tgd.t list
(** big(X,Y₁), …, big(X,Y_{width-1}), sel(X) → out(Y₁,X): a star join
    whose only selective atom is written last — the E12 workload that
    separates planned from naive matching.  Width ≥ 2. *)

val wide_body_db : hubs:int -> fanout:int -> Atom.t list
(** Database for {!wide_body}: [hubs] star centres with [fanout]
    successors each, one selected centre; deterministic. *)

val catalogue : (string * Tgd.t list) list
(** The named families used by the zoo example and the census. *)

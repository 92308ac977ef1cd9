(** The verdict explainer: decide with {!Chase_termination.Decide.check}
    and render the divergence witness the verdict carries
    ({!Chase_termination.Verdict.witness}) as a diagnostic with a
    machine-checkable witness.  No procedure runs twice: the verdict and
    its cause come from one decision, so the verdict here is the verdict
    the [termination] CLI prints, evidence included.

    - a dangerous cycle (simple linear, Theorem 1) renders as a [W020] —
      on simple linear rules every such cycle is realizable, which is why
      [W020] explains a verdict rather than merely flagging a risk;
    - a linear pump (Theorem 2) renders as a [W021], with one lap
      replayed into a concrete fact chain and its realizing substitution
      ({!Chase_acyclicity.Critical_linear.realize});
    - a guard chain (guarded, Theorem 4) renders as a [W021] with a
      guard-chain witness;
    - a verdict without a witness (terminating, unknown, unguarded,
      restricted) gets no diagnostic — none is fabricated.

    Consequently a [Diverges] answer for a (simple) linear or guarded set
    always comes with exactly one warning whose witness realizes it, and
    a [Terminates]/[Unknown] answer comes with none — the agreement
    property the test suite checks over seeded rule sets. *)

open Chase_logic

type t = {
  verdict : Chase_termination.Verdict.t;
  diagnostics : Diagnostic.t list;
}

val check :
  ?standard:bool ->
  ?budget:int ->
  variant:Chase_engine.Variant.t ->
  (Tgd.t * int) list ->
  t
(** [standard] (default true) includes the constants 0, 1 in the critical
    instance; [budget] is {!Chase_termination.Decide.check}'s trigger
    budget (default {!Chase_termination.Guarded.default_budget}). *)

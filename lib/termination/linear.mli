(** Termination for linear TGDs — Theorem 2, via the critical
    pattern-transition procedure of {!Chase_acyclicity.Critical_linear}.
    Divergence verdicts carry the concretely confirmed pumping cycle
    ({!Verdict.Linear_pump}). *)

val check :
  ?standard:bool -> variant:Chase_engine.Variant.t -> Chase_logic.Tgd.t list -> Verdict.t
(** @raise Invalid_argument if the set is not linear, or for the
    restricted variant. *)

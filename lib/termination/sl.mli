(** Termination for simple linear TGDs — Theorem 1: rich acyclicity is
    exactly oblivious-chase termination, weak acyclicity exactly
    semi-oblivious-chase termination.  Both are reachability questions on
    the (extended) dependency graph — the NL upper bound of Theorem 3(1). *)

val check : variant:Chase_engine.Variant.t -> Chase_logic.Tgd.t list -> Verdict.t
(** A divergence verdict carries its dangerous cycle
    ({!Verdict.Dangerous_cycle}).
    @raise Invalid_argument if the set is not simple linear, or for the
    restricted variant. *)

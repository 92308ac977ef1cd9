(** Model-faithful acyclicity (Cuenca Grau et al., KR 2012): chase the
    critical instance with the skolem chase and fail on the first
    {e cyclic} functional term (a skolem symbol nested within itself).
    The strongest standard sufficient condition for semi-oblivious chase
    termination:  WA ⊆ JA ⊆ MFA ⊆ CT^so.  The skolem chase is the
    engine's semi-oblivious run; MFA is a hook on it. *)

open Chase_logic

type answer =
  [ `Mfa  (** the critical chase completed with no cyclic term *)
  | `Not_mfa of string  (** a cyclic functional term, pretty-printed *)
  | `Unknown of string  (** budget exhausted *)
  ]

type watch
(** The skolem symbols of every null a run invented, and the first cyclic
    term among them. *)

val watch : unit -> watch

val observe :
  watch ->
  step:int ->
  rule_index:int ->
  depth:int ->
  created_nulls:int list ->
  Tgd.t ->
  Subst.t ->
  Atom.t list ->
  unit
(** An [on_trigger] hook for a semi-oblivious {!Chase_engine.Engine.run}:
    records the symbols of the application's new nulls and the first
    cyclic term, and never stops the run. *)

val first_cyclic : watch -> string option
(** The first cyclic term observed, pretty-printed. *)

val default_budget : int

val check : ?standard:bool -> ?budget:int -> Tgd.t list -> answer
(** One semi-oblivious {!Chase_engine.Engine.run} of the critical instance
    ([budget] triggers, no other limit), stopped at the first cyclic
    term. *)

val is_mfa : ?standard:bool -> ?budget:int -> Tgd.t list -> bool

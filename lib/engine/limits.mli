(** Resource governance for chase runs: one record unifying the counter
    budgets (triggers, atoms, nulls, derivation depth) with a wall-clock
    deadline and a cooperative cancellation token, plus the structured
    {!Exhaustion.reason} a degraded run reports instead of a bare status.

    Counter budgets are checked on every step; the clock and the token
    every [check_every] steps.  The clock is injectable and the cap
    fields mutable — the hooks {!Faults} uses to trip limits at chosen
    steps through the engine's real degradation paths. *)

(** Cooperative cancellation token, checked at limit-check cadence. *)
module Cancel : sig
  type t

  val create : unit -> t

  val cancel : ?reason:string -> t -> unit
  (** Idempotent; the first reason wins. *)

  val is_cancelled : t -> bool
  val reason : t -> string option
end

(** A point-in-time reading of the run's resource meters. *)
type gauge = {
  g_steps : int;  (** trigger applications so far *)
  g_facts : int;  (** current instance cardinality *)
  g_nulls : int;  (** fresh nulls invented so far *)
  g_depth : int;  (** deepest derivation chain so far *)
  g_elapsed : float;  (** wall-clock seconds since the run started *)
}

type t = {
  mutable max_triggers : int option;
  mutable max_atoms : int option;
  mutable max_nulls : int option;
  mutable max_depth : int option;
  mutable timeout : float option;  (** seconds from the start of the run *)
  cancel : Cancel.t option;
  check_every : int;  (** clock/token cadence, in steps; at least 1 *)
  clock : unit -> float;  (** injectable wall clock *)
  on_gauge : (t -> gauge -> unit) option;
      (** probe run before each limit evaluation; may mutate the caps or
          cancel the token — the fault-injection hook *)
}

val make :
  ?max_triggers:int ->
  ?max_atoms:int ->
  ?max_nulls:int ->
  ?max_depth:int ->
  ?timeout:float ->
  ?cancel:Cancel.t ->
  ?check_every:int ->
  ?clock:(unit -> float) ->
  ?on_gauge:(t -> gauge -> unit) ->
  unit ->
  t
(** Every limit defaults to absent (unlimited); [check_every] to 16;
    [clock] to [Unix.gettimeofday]. *)

val default : t
(** 100k triggers, 200k facts — the historical engine defaults.  Copy
    before mutating. *)

val of_budget : int -> t
(** [of_budget b]: the historical coupling — [b] triggers, [4 * b]
    atoms. *)

val copy : t -> t
(** Physical copy, so cap mutations cannot leak across runs. *)

val remaining : t -> steps:int -> elapsed:float -> t
(** The limits left after a previous phase consumed [steps] trigger
    applications and [elapsed] seconds: trigger budget and deadline are
    reduced (clamped at zero), everything else is copied. *)

type breach =
  | Trigger_budget of int
  | Atom_budget of int
  | Null_budget of int
  | Depth_budget of int
  | Deadline of float  (** the configured timeout, in seconds *)
  | Cancelled of string option  (** the reason given at cancellation *)

val pp_breach : Format.formatter -> breach -> unit

module Exhaustion : sig
  (** Why and how a run stopped short. *)
  type reason = {
    breach : breach;
    steps : int;  (** trigger applications performed *)
    elapsed : float;  (** wall-clock seconds consumed *)
    rule_firings : (string * int) list;  (** per-rule counts, descending *)
    dominant_rule : (string * int) option;
    null_rate : float;  (** fresh nulls per trigger over the last window *)
    window : int;  (** length of that window, in triggers *)
    deepest_chain : int;
  }

  val make :
    breach:breach ->
    ?steps:int ->
    ?elapsed:float ->
    ?rule_firings:(string * int) list ->
    ?null_rate:float ->
    ?window:int ->
    ?deepest_chain:int ->
    unit ->
    reason
  (** [dominant_rule] is derived from the head of [rule_firings]. *)

  val diagnosis : reason -> string
  (** "diverging so far" (recent null growth) vs "slow but possibly
      converging" (flat null growth), with the measured rate. *)

  val pp : Format.formatter -> reason -> unit
  (** Multi-line report: breach, steps/time, dominant rule, null growth,
      diagnosis. *)

  val summary : reason -> string
  (** One-line form, for stderr and verdict evidence. *)
end

(** A started run's limit checker. *)
module Monitor : sig
  type limits = t
  type t

  val start : limits -> t
  (** Captures the start time from the limits' clock. *)

  val elapsed : t -> float
  val limits : t -> limits

  val check :
    ?force:bool -> t -> steps:int -> facts:int -> nulls:int -> depth:int ->
    breach option
  (** Evaluate the limits against the current meters.  Counter budgets
      and the cancellation token are checked on every call; the clock and
      the [on_gauge] probe cadence-gate on [check_every] unless [force]
      is set. *)

  val interrupted : t -> breach option
  (** The cancellation token, then the deadline on a fresh clock read;
      no counter budget and no [on_gauge] probe.  The poll of a phase
      that applies no triggers, such as the linear lasso search. *)
end

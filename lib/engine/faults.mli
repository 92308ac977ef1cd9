(** Fault injection for the resource-governed chase runtime: schedule
    deadline expiry, cancellation or cap trips at chosen steps, and let
    the engine's {e real} limit-checking and degradation paths fire.  The
    injections act on the limits' injectable parts (clock skew, token,
    mutable caps); the engine never knows it is being tested. *)

type injection =
  | Expire_deadline  (** skew the clock past the configured deadline *)
  | Cancel of string  (** cancel the run's token, with a reason *)
  | Trip_trigger_cap  (** collapse the trigger budget to the current count *)
  | Trip_atom_cap  (** collapse the atom budget to the current cardinality *)
  | Trip_null_cap  (** collapse the null budget to the current count *)
  | Trip_depth_cap  (** collapse the depth budget below the current depth *)

val pp_injection : Format.formatter -> injection -> unit

exception Crash of string
(** The simulated process death raised by a journal writer armed with a
    {!write_fault}, after the scheduled (possibly partial) bytes have
    reached the file.  Tests catch it where a real run would be killed. *)

type write_fault =
  | Kill_after_record of int
      (** write record [k] in full, then die — a kill between appends *)
  | Torn_write of int * int
      (** [Torn_write (k, bytes)]: write only the first [bytes] bytes of
          record [k]'s frame, then die — a torn append *)
  | Fsync_fail of int
      (** the [k]-th [fsync] through the writer fails fatally — a dying
          disk rather than a dying process *)

val pp_write_fault : Format.formatter -> write_fault -> unit

(** Independent write-fault arming per journal path: writers look up
    their own path at open time and combine the armed faults with any
    passed explicitly, so a chaos harness can target one session among
    many — and [Kill_after_record] + [Torn_write] compose on one
    stream.  All operations are thread-safe. *)
module Writes : sig
  val arm : string -> write_fault list -> unit
  (** Replace the faults armed for a path. *)

  val disarm : string -> unit
  val armed_for : string -> write_fault list
  val reset : unit -> unit
  (** Disarm every path (test teardown). *)
end

(** Faults of the request/response plane of the chase service (consumed
    by [Chase_service.Server]): the accept loop really exits, the
    response socket is really closed or throttled mid-write. *)
type service_fault =
  | Kill_accept_after of int
      (** the accept loop exits after the [n]-th accepted connection *)
  | Drop_response_after of int * int
      (** the [k]-th response is cut after [bytes] bytes and the
          connection closed — a mid-response drop *)
  | Slow_response of int * int
      (** the [k]-th response is written [chunk] bytes at a time,
          yielding between chunks — slow-loris partial writes *)

val pp_service_fault : Format.formatter -> service_fault -> unit

(** Faults of the primary→standby replication plane (consumed by
    [Chase_replica.Shipper]): the shipping connection is really cut, a
    frame really goes out twice, the shipped bytes are really corrupted
    in flight, a send is really delayed.  Frame counting is 1-based
    within one shipper. *)
type replica_fault =
  | Cut_ship_after of int
      (** partition after the [k]-th shipped frame; reconnect + resync *)
  | Dup_ship of int  (** the [k]-th frame is sent twice *)
  | Corrupt_ship of int
      (** the [k]-th frame's payload is corrupted, CRC left intact —
          the standby must reject it structurally *)
  | Delay_ship of int * float
      (** the [k]-th frame is delayed by the given seconds *)

val pp_replica_fault : Format.formatter -> replica_fault -> unit

type t

val create : (int * injection) list -> t
(** [(step, injection)] pairs; each fires once, the first time the
    engine's step counter reaches its step. *)

val arm : t -> Limits.t -> Limits.t
(** A copy of the given limits wired to the plan, with [check_every]
    forced to 1 so injections land deterministically. *)

val fired : t -> (int * injection) list
(** Injections that actually fired, in firing order, with the step at
    which each landed. *)

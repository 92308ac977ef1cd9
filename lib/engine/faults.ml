(** Fault injection for the resource-governed chase runtime.

    A fault plan schedules injections at chosen steps — deadline expiry,
    cancellation, cap trips — and {!arm} compiles it into a {!Limits.t}
    whose injectable parts (clock, token, mutable caps) trip on schedule.
    Crucially the injections act on the engine's {e inputs}: the clock is
    skewed past the deadline, the token is cancelled, a cap is lowered to
    the current meter reading — and the engine's real limit-checking and
    degradation paths then fire exactly as they would in production.
    Nothing in the engine knows it is being tested.

    The property tests built on this harness assert that every degraded
    path still yields a well-formed partial result whose facts are all
    derivable ({!Engine.check_provenance}). *)

type injection =
  | Expire_deadline  (** skew the clock past the configured deadline *)
  | Cancel of string  (** cancel the run's token, with a reason *)
  | Trip_trigger_cap  (** collapse the trigger budget to the current count *)
  | Trip_atom_cap  (** collapse the atom budget to the current cardinality *)
  | Trip_null_cap  (** collapse the null budget to the current count *)
  | Trip_depth_cap  (** collapse the depth budget below the current depth *)

(* ------------------------------------------------------------------ *)
(* Crash-point injection for the write-ahead journal                   *)
(* ------------------------------------------------------------------ *)

exception Crash of string
(** The simulated process death: raised by a journal writer armed with a
    {!write_fault}, after the scheduled (possibly partial) bytes have
    reached the file.  Tests catch it where a real run would be killed. *)

type write_fault =
  | Kill_after_record of int
      (** write record [k] in full, then die — a kill between two
          appends *)
  | Torn_write of int * int
      (** [Torn_write (k, bytes)]: write only the first [bytes] bytes of
          record [k]'s frame, then die — a torn append, leaving a
          corrupt tail *)
  | Fsync_fail of int
      (** the [k]-th [fsync] through the writer fails fatally — a dying
          disk rather than a dying process *)

let pp_write_fault fm = function
  | Kill_after_record k -> Fmt.pf fm "kill-after-record %d" k
  | Torn_write (k, b) -> Fmt.pf fm "torn-write(%d, %d bytes)" k b
  | Fsync_fail k -> Fmt.pf fm "fsync-fail %d" k

(* ------------------------------------------------------------------ *)
(* Per-path write-fault arming                                         *)
(* ------------------------------------------------------------------ *)

(** Independent fault arming per journal path, so a chaos harness can
    target one session among many: writers consult the registry for
    their own path at open time and combine what they find with any
    explicitly passed faults.  [Kill_after_record] and [Torn_write]
    compose freely — each stream carries a {e list} of armed faults. *)
module Writes = struct
  let mu = Mutex.create ()
  let tbl : (string, write_fault list) Hashtbl.t = Hashtbl.create 7

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let arm path faults =
    locked (fun () -> Hashtbl.replace tbl path faults)

  let disarm path = locked (fun () -> Hashtbl.remove tbl path)

  let armed_for path =
    locked (fun () -> Option.value ~default:[] (Hashtbl.find_opt tbl path))

  let reset () = locked (fun () -> Hashtbl.reset tbl)
end

(* ------------------------------------------------------------------ *)
(* Service-level faults                                                *)
(* ------------------------------------------------------------------ *)

(** Faults of the request/response plane of the chase service — the
    vocabulary [Chase_service.Server] consumes.  Like the write faults,
    they act through the real code paths: the accept loop really exits,
    the response socket is really closed mid-write. *)
type service_fault =
  | Kill_accept_after of int
      (** the accept loop exits after the [n]-th accepted connection *)
  | Drop_response_after of int * int
      (** [Drop_response_after (k, bytes)]: the [k]-th response written
          by the server is cut after [bytes] bytes and the connection
          closed — a mid-response drop *)
  | Slow_response of int * int
      (** [Slow_response (k, chunk)]: the [k]-th response is written
          [chunk] bytes at a time, yielding between chunks — slow-loris
          partial writes *)

let pp_service_fault fm = function
  | Kill_accept_after n -> Fmt.pf fm "kill-accept-after %d" n
  | Drop_response_after (k, b) -> Fmt.pf fm "drop-response(%d, %d bytes)" k b
  | Slow_response (k, c) -> Fmt.pf fm "slow-response(%d, %d-byte chunks)" k c

(* ------------------------------------------------------------------ *)
(* Replication-plane faults                                            *)
(* ------------------------------------------------------------------ *)

(** Faults of the primary→standby shipping plane, consumed by
    [Chase_replica.Shipper].  As everywhere else they act through the
    real code paths: the connection is really cut (a network
    partition), the frame really goes out twice (an at-least-once
    retransmit), the shipped bytes are really corrupted (the standby's
    CRC check must catch them), the send is really delayed (replication
    lag).  Counting is by ship frame, 1-based, within one shipper. *)
type replica_fault =
  | Cut_ship_after of int
      (** partition: the shipping connection drops after the [k]-th
          frame has been sent; the shipper must reconnect and resync *)
  | Dup_ship of int
      (** the [k]-th ship frame is sent twice — the standby must apply
          it idempotently and keep its cumulative ack monotone *)
  | Corrupt_ship of int
      (** the [k]-th ship frame's payload is corrupted in flight (one
          hex digit flipped, declared CRC left intact) — the standby
          must reject it structurally and force a resync *)
  | Delay_ship of int * float
      (** the [k]-th ship frame is delayed by the given seconds —
          deterministic replication lag *)

let pp_replica_fault fm = function
  | Cut_ship_after k -> Fmt.pf fm "cut-ship-after %d" k
  | Dup_ship k -> Fmt.pf fm "dup-ship %d" k
  | Corrupt_ship k -> Fmt.pf fm "corrupt-ship %d" k
  | Delay_ship (k, s) -> Fmt.pf fm "delay-ship(%d, %.3fs)" k s

let pp_injection fm = function
  | Expire_deadline -> Fmt.string fm "expire-deadline"
  | Cancel why -> Fmt.pf fm "cancel(%s)" why
  | Trip_trigger_cap -> Fmt.string fm "trip-trigger-cap"
  | Trip_atom_cap -> Fmt.string fm "trip-atom-cap"
  | Trip_null_cap -> Fmt.string fm "trip-null-cap"
  | Trip_depth_cap -> Fmt.string fm "trip-depth-cap"

type event = {
  at_step : int;
  injection : injection;
  mutable tripped : bool;
}

type t = {
  events : event list;
  skew : float ref;  (** seconds added to the armed limits' clock *)
  mutable log : (int * injection) list;  (** injections fired, reversed *)
}

let create plan =
  {
    events =
      List.map
        (fun (at_step, injection) -> { at_step; injection; tripped = false })
        plan;
    skew = ref 0.;
    log = [];
  }

let fired t = List.rev t.log

let inject t (l : Limits.t) (g : Limits.gauge) ev =
  ev.tripped <- true;
  t.log <- (g.Limits.g_steps, ev.injection) :: t.log;
  match ev.injection with
  | Expire_deadline ->
    let d = match l.Limits.timeout with Some d -> d | None -> 0. in
    t.skew := !(t.skew) +. d +. 1.
  | Cancel why -> (
    match l.Limits.cancel with
    | Some c -> Limits.Cancel.cancel ~reason:why c
    | None -> ())
  | Trip_trigger_cap -> l.Limits.max_triggers <- Some g.Limits.g_steps
  | Trip_atom_cap -> l.Limits.max_atoms <- Some g.Limits.g_facts
  | Trip_null_cap -> l.Limits.max_nulls <- Some g.Limits.g_nulls
  | Trip_depth_cap -> l.Limits.max_depth <- Some (g.Limits.g_depth - 1)

(** [arm t base] is a copy of [base] wired to the plan: the copy's clock
    adds the plan's skew, its token is shared with (or created for) the
    plan, and its [on_gauge] probe fires each scheduled injection the
    first time the step counter reaches its step.  [check_every] is
    forced to 1 so injections land deterministically. *)
let arm t (base : Limits.t) =
  let cancel =
    match base.Limits.cancel with
    | Some c -> c
    | None -> Limits.Cancel.create ()
  in
  let base_clock = base.Limits.clock in
  let clock () = base_clock () +. !(t.skew) in
  let on_gauge l g =
    List.iter
      (fun ev ->
        if (not ev.tripped) && g.Limits.g_steps >= ev.at_step then
          inject t l g ev)
      t.events
  in
  {
    (Limits.copy base) with
    Limits.cancel = Some cancel;
    clock;
    on_gauge = Some on_gauge;
    check_every = 1;
  }

(** The flight recorder: a bounded lock-free ring of recent span
    records ({!Tracectx.record}), dumped through the trace writer
    ({!Tracectx.Shard}) on anomalies: crash-recovery boot, watchdog
    stalls, exhaustion, load sheds.

    Nothing is recorded until a dump path is configured.  Recording is
    wait-free and never does I/O; [dump] never raises. *)

val size : int
(** Ring capacity: the newest [size] records are retained. *)

val configure : path:string option -> unit
(** Where [dump] appends its post-mortems; [None] (the default)
    disables recording and dumping. *)

val configured : unit -> string option

val record : Tracectx.record -> unit
(** Push one record; a no-op while unconfigured. *)

val instant : ?args:(string * Jsonv.t) list -> string -> unit
(** Record one of the process's own events — [request], [shed],
    [recovery], [watchdog], [exhausted] — as an instant under the
    recorder's root span. *)

val recorded : unit -> int
(** Total records ever pushed (≥ retained). *)

val entries : unit -> Tracectx.record list
(** Snapshot of retained records, oldest first. *)

val dump : reason:string -> unit
(** Append a post-mortem to the configured path: a header record named
    ["flight"] (the recorder's root span; args [reason], [recorded],
    [retained]), then the retained records.  Every line parses with
    {!Tracectx.parse_shard_line}.  No-op when unconfigured; never
    raises. *)

val reset : unit -> unit
(** Test hook: clear the ring and its counter. *)

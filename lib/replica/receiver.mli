(** The standby side of replication: accepts one shipper at a time,
    validates every frame structurally (sequencing, name hygiene, CRC)
    and applies it idempotently to its own spool — duplicates are
    re-acked without re-applying, anything corrupt or out of order
    draws a structured nack (which is the re-request: the shipper
    answers with a full-resync session).  A background thread
    continuously certifies every received journal ({!certify_one}),
    until {!stop} cancels it, and
    each frame's [head - seq] lands in the [repl.lag] metric
    histogram. *)

type config = {
  spool_dir : string;
  socket : string;
  cert_interval : float;  (** certification cadence; 0 disables *)
  metrics : string option;  (** JSONL metrics file (chase-metrics/1) *)
  trace_shard : string option;
      (** trace-shard JSONL: traced ship frames yield [receiver.apply]
          spans parented on the primary's server span *)
}

val config :
  ?cert_interval:float ->
  ?metrics:string ->
  ?trace_shard:string ->
  spool_dir:string ->
  socket:string ->
  unit ->
  config

type t

val start : config -> t
val stop : t -> unit
(** Close everything and write final metric summaries.  A certification
    in progress is cancelled (it counts as not certified) and the
    certifier's [cert_interval] sleep is cut short, so [stop] returns
    without waiting for either. *)

val certify_one :
  ?cancel:Chase_engine.Limits.Cancel.t ->
  spool_dir:string ->
  string ->
  (int, string) result option
(** [certify_one ~spool_dir name] certifies the journal [name] of the
    spool: the chase of its shipped [.req] program is re-run, capped at
    the journal's length, and every step is checked against the journal
    ({!Chase_persist.Recovery.verify}).  [Some (Ok k)] when all [k]
    records match; [Some (Error reason)] when the journal or its
    request is unusable, a record differs, or [cancel] was cancelled
    before the re-run finished; [None] while the [.req] has not
    arrived.  Never modifies the spool. *)

val last_error : t -> string option
(** The most recent nack reason or certification failure. *)

val stats : t -> (string * int) list
(** [applied], [cert_fails], [certified], [dups], [nacks], [sessions]
    — sorted by name. *)

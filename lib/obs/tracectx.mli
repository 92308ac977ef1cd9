(** The span model: trace contexts, the one span {!record}, its writer
    ({!Shard}) and its Chrome renderer ({!Chrome}).

    An {!Obs} instance's spans become records through {!records}; the
    service, replication and [chasec] spans are written by the {!span}
    bracket; the flight recorder holds records and dumps them through
    {!Shard}.  [chase --trace], [chase-termination --trace] and [chasec
    trace-merge] all render through {!Chrome}.  Across processes:
    {e propagate ids, ship spans, merge offline} — a request carries
    only the context string, each process appends to its own shard,
    and [trace-merge] joins shards by trace id. *)

type t = {
  trace : string;  (** 16 lowercase hex digits naming the request tree *)
  span : string;  (** 16 lowercase hex digits naming the current span *)
}

val genesis : unit -> t
(** A fresh trace with its root span — minted by the client. *)

val child : t -> t
(** Same trace, fresh span id: the callee's span, parented by whoever
    held the input context. *)

val fresh_id : unit -> string
(** A bare 16-hex-digit id from the process-wide splitmix64 stream. *)

val is_hex_id : string -> bool

val to_string : t -> string
(** ["<trace>-<span>"] — the 33-byte wire form. *)

val of_string : string -> t option
(** Strict parse of the wire form; [None] on anything malformed. *)

val now_us : unit -> float
(** The one timestamp source of every span: wall-clock epoch
    microseconds, so same-host shards merge without clock alignment.
    It is not monotonic; {!Obs} clamps what it reads. *)

(** One span: a shard line, a flight entry, a Chrome [X] event. *)
type record = {
  r_trace : string;
  r_span : string;
  r_parent : string option;  (** [None] for a trace's root *)
  r_name : string;
  r_proc : string;
  r_pid : int;
  r_ts_us : float;  (** start, epoch microseconds *)
  r_dur_us : float;  (** 0 for instants *)
  r_args : (string * Jsonv.t) list;
}

val program : string
(** The executable's base name without extension: the [proc] of the
    records this process makes outside a {!Shard}. *)

val make :
  ctx:t ->
  ?parent:string ->
  ?proc:string ->
  name:string ->
  ts_us:float ->
  dur_us:float ->
  (string * Jsonv.t) list ->
  record
(** A record of span [ctx], stamped with this process's pid. *)

val record_to_json : record -> Jsonv.t

val parse_shard_line : string -> record option
(** One JSONL line → record; [None] on anything else (a torn final
    line from a killed process is expected litter). *)

(** The writer of shards and flight dumps: append-only JSONL, one
    flushed line per record, mutex-guarded, and {e never} raising —
    open or write failures (and armed [check] faults) turn it into a
    black hole that counts drops. *)
module Shard : sig
  type writer

  val open_ : ?check:(unit -> bool) -> proc:string -> string -> writer
  (** [open_ ~proc path] appends to [path]; [proc] labels what {!span}
      and {!instant} write.  [check] is a fault hook: when it returns
      [true] the next write fails as if the disk died. *)

  val drops : writer -> int
  (** Records lost to sink failure since open. *)

  val write_record : writer -> record -> unit
  val close : writer -> unit
end

(** {1 Writing spans} *)

val span :
  Shard.writer option ->
  ?parent:t ->
  ?ctx:t ->
  ?since:float ->
  ?args:('a -> (string * Jsonv.t) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span w ~parent name f] runs [f] and writes the span it took as a
    fresh child of [parent].  [ctx] names the span itself (a root
    without [parent]); [since] backdates its start to an earlier
    {!now_us}; [args] renders its args from [f]'s result.  With no
    writer, or neither [parent] nor [ctx], it only runs [f]; if [f]
    raises, nothing is written. *)

val instant :
  Shard.writer option -> ?parent:t -> ?args:(string * Jsonv.t) list -> string -> unit
(** A zero-duration child record of [parent], now.  Nothing without a
    writer or a parent. *)

(** {1 Records from an Obs event stream} *)

val records :
  ?on_series:(name:string -> ts_us:float -> (string * float) list -> unit) ->
  (record -> unit) ->
  Sink.t
(** A sink pairing an {!Obs} instance's [Span_begin]/[Span_end] events
    into records, passed with its instants to the callback, each
    parented on the innermost span open when it began.  It mints one
    trace whose root span, the whole observed run, is passed when the
    sink closes.  Timestamps are rebased to epoch microseconds;
    [Series] samples go to [on_series]. *)

(** {1 The Chrome renderer}

    A Chrome trace-event JSON array (Perfetto, about:tracing): a
    [ph:"M"] event names each process when its first record appears,
    a record is an [X] event whose args carry its ids, a series sample
    a [C] event. *)
module Chrome : sig
  type writer

  val create : (string -> unit) -> writer
  val record : writer -> record -> unit

  val sample :
    writer -> name:string -> ts_us:float -> (string * float) list -> unit
  (** A counter sample of this process. *)

  val close : writer -> unit
  (** Terminate the array; an empty stream still closes to valid
      JSON. *)
end

val merge_to_chrome : (string -> unit) -> record list -> unit
(** Render shard records through {!Chrome}, ordered by trace id, then
    start time. *)

(** Observability facade: spans, counters, gauges and histograms
    behind one [enabled] flag, feeding pluggable sinks.

    The {!disabled} value is the default everywhere: every operation on
    it reduces to a flag test, so instrumented code is free when nobody
    is looking.  Span streams are well-formed by construction — ends
    are matched against a stack of open spans and {!finish} closes
    anything left open — so sinks always see balanced begin/end pairs.
    A trace file pairs them into span records ({!Tracectx.records}):
    the instance's run is one trace with one root span. *)

type t

val disabled : t
(** The no-op instance.  [enabled disabled = false]. *)

val create : ?clock:(unit -> float) -> ?metrics:Metrics.t -> Sink.t list -> t
(** A live instance.  [clock] (seconds) defaults to the span model's
    timestamp source {!Tracectx.now_us} — wall-clock time, not a
    monotonic clock; readings are clamped monotone relative to creation
    time. *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val now : t -> float
(** Seconds since creation, clamped so it never decreases. *)

(** {1 Spans} *)

val span_begin : t -> ?args:Sink.args -> string -> unit

val span_end : t -> string -> unit
(** Emits only when [name] matches the innermost open span; a stray end
    is dropped. *)

val with_span : t -> ?args:Sink.args -> string -> (unit -> 'a) -> 'a
(** Exception-safe [span_begin]/[span_end] bracket. *)

(** {1 Point events} *)

val instant : t -> ?args:Sink.args -> string -> unit
val series : t -> string -> (string * float) list -> unit

(** {1 Metrics} *)

val incr : t -> ?label:string -> ?by:int -> string -> unit
val set_gauge : t -> ?label:string -> string -> float -> unit
val observe : t -> ?label:string -> string -> float -> unit

(** {1 Lifecycle} *)

val flush : t -> unit

val finish : t -> unit
(** Close any open spans, then close the sink (writing a trace file's
    root span and terminating its array).  Idempotent; after [finish]
    all emission is a no-op. *)

(** {1 Metric summaries} *)

val metrics_header : string
(** The schema line written first to a metrics file:
    [{"type":"schema","schema":"chase-metrics/1"}]. *)

val write_metrics : t -> (string -> unit) -> unit
(** Write one JSONL summary line per metric (counters, gauges,
    histograms with count/sum/min/max/p50/p90/p99), sorted by
    (name, label). *)

(** {1 File plumbing for the CLIs} *)

val files :
  ?trace:string ->
  ?metrics:string ->
  ?force:bool ->
  unit ->
  (t * (unit -> unit), string) result
(** Open the requested output files and build a live instance: its
    spans and instants become records ({!Tracectx.records}) rendered by
    {!Tracectx.Chrome} on [trace], with series samples as counter
    events; its point events go to a JSONL sink (after the
    {!metrics_header} line) on [metrics].  When a flight path is
    configured ({!Flight.configure}), its records also feed the flight
    ring.  The returned closure
    finishes the instance, appends metric summaries to the metrics
    file, and closes both files.  With neither file and [force] false,
    returns [(disabled, ignore)]; [force] makes the instance live
    anyway (used by [--profile], which needs the registry only). *)

(** Event sinks: pluggable back-ends for an {!Obs} instance's event
    stream.  Spans are turned into records by {!Tracectx.records} and
    rendered by {!Tracectx.Chrome}; this module only carries the event
    type and the point-event sinks. *)

type args = (string * Jsonv.t) list

type event =
  | Span_begin of { name : string; ts : float; args : args }
  | Span_end of { name : string; ts : float }
  | Instant of { name : string; ts : float; args : args }
  | Series of { name : string; ts : float; values : (string * float) list }
      (** A sampled set of gauges, rendered as Chrome counter tracks. *)

type t = {
  emit : event -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

val null : t
(** Drops everything; all three closures are [ignore]. *)

val tee : t list -> t
(** Broadcast to several sinks. *)

val jsonl : ?flush:(unit -> unit) -> (string -> unit) -> t
(** One JSON object per point event and line, with a ["type"]
    discriminator (["instant"], ["series"]): the body of a metrics
    file.  Span begin/end events are dropped — spans are records. *)

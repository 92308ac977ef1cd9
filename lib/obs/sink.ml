(** Event sinks: where an {!Obs} instance's events go.

    A sink is three closures — emit, flush, close — over an abstract
    event stream.  The engine never formats anything itself; it emits
    {!event} values and the sink decides what to keep.  Spans become
    records ({!Tracectx.records}) and are rendered by the one Chrome
    renderer; the sinks here are [null] (drop everything) and [jsonl]
    (one JSON object per point event, the metrics file's body). *)

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

let null = { emit = ignore; flush = ignore; close = ignore }

let tee sinks =
  {
    emit = (fun e -> List.iter (fun s -> s.emit e) sinks);
    flush = (fun () -> List.iter (fun s -> s.flush ()) sinks);
    close = (fun () -> List.iter (fun s -> s.close ()) sinks);
  }

let jsonl ?(flush = ignore) write =
  let line obj = write (Jsonv.to_string (Jsonv.Obj obj) ^ "\n") in
  let emit = function
    | Span_begin _ | Span_end _ -> ()
    | Instant { name; ts; args } ->
      line
        (("type", Jsonv.String "instant")
         :: ("name", Jsonv.String name)
         :: ("ts", Jsonv.Float ts)
         :: args)
    | Series { name; ts; values } ->
      line
        [
          ("type", Jsonv.String "series");
          ("name", Jsonv.String name);
          ("ts", Jsonv.Float ts);
          ( "values",
            Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Float v)) values) );
        ]
  in
  { emit; flush; close = flush }

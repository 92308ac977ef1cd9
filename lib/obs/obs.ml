(** The observability facade the rest of the system talks to.

    An [Obs.t] bundles a clock, an event sink and a metric registry
    behind one [enabled] flag.  The clock defaults to the span model's
    one timestamp source, {!Tracectx.now_us} — wall-clock time, which
    can step — and every reading is clamped so an instance's timestamps
    never run backwards.  The {!disabled} value is the
    default everywhere: every operation on it is a single flag test, so
    instrumented code costs nothing measurable when nobody is looking.

    Spans are kept well-formed by construction: the facade tracks a
    stack of open span names, [span_end] only emits when it matches the
    innermost open span, and [finish] closes anything left open — so a
    sink always sees a balanced stream, whatever the instrumented code
    does (exceptions included; prefer {!with_span}, which is
    exception-safe on its own). *)

type t = {
  enabled : bool;
  clock : unit -> float;
  t0 : float;
  mutable last : float;
  sink : Sink.t;
  metrics : Metrics.t;
  mutable stack : string list;
  mutable finished : bool;
}

let disabled =
  {
    enabled = false;
    clock = (fun () -> 0.);
    t0 = 0.;
    last = 0.;
    sink = Sink.null;
    metrics = Metrics.create ();
    stack = [];
    finished = true;
  }

let default_clock () = Tracectx.now_us () *. 1e-6

let create ?(clock = default_clock) ?metrics sinks =
  let t0 = clock () in
  {
    enabled = true;
    clock;
    t0;
    last = 0.;
    sink = (match sinks with [ s ] -> s | ss -> Sink.tee ss);
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    stack = [];
    finished = false;
  }

let enabled t = t.enabled
let metrics t = t.metrics

(* Monotone-clamped elapsed time: wall clocks can step backwards, trace
   timestamps must not. *)
let now t =
  let e = t.clock () -. t.t0 in
  let e = if e < t.last then t.last else e in
  t.last <- e;
  e

(* --- spans --------------------------------------------------------- *)

let span_begin t ?(args = []) name =
  if t.enabled && not t.finished then begin
    t.stack <- name :: t.stack;
    t.sink.emit (Sink.Span_begin { name; ts = now t; args })
  end

let span_end t name =
  if t.enabled && not t.finished then
    match t.stack with
    | top :: rest when top = name ->
      t.stack <- rest;
      t.sink.emit (Sink.Span_end { name; ts = now t })
    | _ -> ()

let with_span t ?args name f =
  if t.enabled then begin
    span_begin t ?args name;
    Fun.protect ~finally:(fun () -> span_end t name) f
  end
  else f ()

(* --- point events -------------------------------------------------- *)

let instant t ?(args = []) name =
  if t.enabled && not t.finished then
    t.sink.emit (Sink.Instant { name; ts = now t; args })

let series t name values =
  if t.enabled && not t.finished then
    t.sink.emit (Sink.Series { name; ts = now t; values })

(* --- metrics ------------------------------------------------------- *)

let incr t ?label ?by name = if t.enabled then Metrics.incr t.metrics ?label ?by name
let set_gauge t ?label name v =
  if t.enabled then Metrics.set_gauge t.metrics ?label name v
let observe t ?label name v =
  if t.enabled then Metrics.observe t.metrics ?label name v

(* --- lifecycle ----------------------------------------------------- *)

let flush t = if t.enabled then t.sink.flush ()

let finish t =
  if t.enabled && not t.finished then begin
    List.iter
      (fun name -> t.sink.emit (Sink.Span_end { name; ts = now t }))
      t.stack;
    t.stack <- [];
    t.finished <- true;
    t.sink.close ()
  end

(* --- metric summaries ---------------------------------------------- *)

let metrics_header = {|{"type":"schema","schema":"chase-metrics/1"}|}

let write_metrics t write =
  let line obj = write (Jsonv.to_string (Jsonv.Obj obj) ^ "\n") in
  List.iter
    (fun (name, label, entry) ->
      let base =
        ("name", Jsonv.String name)
        ::
        (if label = "" then [] else [ ("label", Jsonv.String label) ])
      in
      match entry with
      | Metrics.E_counter v ->
        line (("type", Jsonv.String "counter") :: base @ [ ("value", Jsonv.Int v) ])
      | Metrics.E_gauge v ->
        line
          (("type", Jsonv.String "gauge") :: base @ [ ("value", Jsonv.Float v) ])
      | Metrics.E_hist _ -> (
        match Metrics.hist_stats t.metrics ~label name with
        | None -> ()
        | Some (count, sum, mn, mx, p50, p90, p99) ->
          line
            (("type", Jsonv.String "histogram")
             :: base
            @ [
                ("count", Jsonv.Int count);
                ("sum", Jsonv.Float sum);
                ("min", Jsonv.Float mn);
                ("max", Jsonv.Float mx);
                ("p50", Jsonv.Float p50);
                ("p90", Jsonv.Float p90);
                ("p99", Jsonv.Float p99);
              ])))
    (Metrics.dump t.metrics)

(* --- file plumbing for the CLIs ------------------------------------ *)

(* The instance's records go to the trace file, rendered as Chrome
   events, and to the flight ring when a dump path is configured. *)
let records_sink trace_oc =
  let chrome = Option.map (fun oc -> Tracectx.Chrome.create (output_string oc)) trace_oc in
  let flight = Flight.configured () <> None in
  if chrome = None && not flight then None
  else
    let on_record r =
      Option.iter (fun w -> Tracectx.Chrome.record w r) chrome;
      if flight then Flight.record r
    and on_series ~name ~ts_us values =
      Option.iter (fun w -> Tracectx.Chrome.sample w ~name ~ts_us values) chrome
    in
    let s = Tracectx.records ~on_series on_record in
    Some
      {
        s with
        Sink.flush = (fun () -> Option.iter Stdlib.flush trace_oc);
        close =
          (fun () ->
            s.Sink.close ();
            Option.iter Tracectx.Chrome.close chrome);
      }

let files ?trace ?metrics:metrics_file ?(force = false) () =
  if trace = None && metrics_file = None && not force then
    Ok (disabled, ignore)
  else begin
    let opened = ref [] in
    let open_file path =
      let oc = open_out path in
      opened := (path, oc) :: !opened;
      oc
    in
    match
      let trace_oc = Option.map open_file trace in
      let metrics_oc =
        Option.map
          (fun path ->
            let oc = open_file path in
            output_string oc (metrics_header ^ "\n");
            oc)
          metrics_file
      in
      let sinks =
        Option.to_list (records_sink trace_oc)
        @ Option.to_list
            (Option.map
               (fun oc ->
                 Sink.jsonl ~flush:(fun () -> Stdlib.flush oc) (output_string oc))
               metrics_oc)
      in
      let t = create sinks in
      let close () =
        finish t;
        Option.iter (fun oc -> write_metrics t (output_string oc)) metrics_oc;
        List.iter (fun (_, oc) -> close_out_noerr oc) !opened
      in
      (t, close)
    with
    | pair -> Ok pair
    | exception Sys_error msg ->
      List.iter (fun (_, oc) -> close_out_noerr oc) !opened;
      Error msg
  end

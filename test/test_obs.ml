(** The observability subsystem: span streams are well-formed by
    construction, sinks never raise and always emit valid JSON,
    histogram quantiles stay within the log-bucket error bound, and the
    counters the engine dumps are matcher-independent — planned and
    naive runs must report the same firings.

    Spans and metrics are checked against {e real} engine runs, not
    synthetic event streams, so the tests pin the instrumentation as
    wired, not just the sinks. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Harness: observe a chase run into in-memory sinks                   *)
(* ------------------------------------------------------------------ *)

let tower = lazy (Families.guarded_tower ~levels:5)

let observed_chase ~obs rules db =
  let config =
    { Engine.variant = Variant.Semi_oblivious; limits = Limits.of_budget 10_000 }
  in
  Engine.run ~config ~obs rules db

let observed_run sink_of_buffer =
  let rules = Lazy.force tower in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let buf = Buffer.create 4096 in
  let metrics = Metrics.create () in
  let obs = Obs.create ~metrics [ sink_of_buffer buf ] in
  let result = observed_chase ~obs rules db in
  Obs.finish obs;
  (result, metrics, Buffer.contents buf)

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let parse_line i l =
  match Jsonv.of_string l with
  | Ok j -> j
  | Error msg -> Alcotest.failf "line %d: invalid JSON: %s (%S)" i msg l

let str_member k j = Option.bind (Jsonv.member k j) Jsonv.to_string_opt

(* ------------------------------------------------------------------ *)
(* Span records                                                        *)
(* ------------------------------------------------------------------ *)

(* The records an observed run yields, each written as a JSONL line the
   way the trace writer does and re-read through [parse_shard_line]. *)
let records_sink b =
  Tracectx.records (fun r ->
      Buffer.add_string b (Jsonv.to_string (Tracectx.record_to_json r));
      Buffer.add_char b '\n')

let reparse out =
  List.mapi
    (fun i l ->
      match Tracectx.parse_shard_line l with
      | Some r -> r
      | None -> Alcotest.failf "line %d is not a record: %S" i l)
    (lines out)

(* A run's records form one tree: one trace, exactly one root, every
   parent resolves, and every span lies inside its parent's interval
   (to the microsecond a start time is written with). *)
let check_tree records =
  let by_id = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_id r.Tracectx.r_span r) records;
  Alcotest.(check int) "span ids are distinct" (List.length records)
    (Hashtbl.length by_id);
  (match List.sort_uniq compare (List.map (fun r -> r.Tracectx.r_trace) records) with
  | [ _ ] -> ()
  | ts -> Alcotest.failf "%d traces, want one" (List.length ts));
  (match List.filter (fun r -> r.Tracectx.r_parent = None) records with
  | [ _ ] -> ()
  | roots -> Alcotest.failf "%d roots, want one" (List.length roots));
  List.iter
    (fun r ->
      match r.Tracectx.r_parent with
      | None -> ()
      | Some p -> (
        match Hashtbl.find_opt by_id p with
        | None -> Alcotest.failf "%S: unknown parent %s" r.Tracectx.r_name p
        | Some q ->
          let ends x = x.Tracectx.r_ts_us +. x.Tracectx.r_dur_us in
          Alcotest.(check bool)
            (Fmt.str "%S nests inside %S" r.Tracectx.r_name q.Tracectx.r_name)
            true
            (r.Tracectx.r_ts_us >= q.Tracectx.r_ts_us && ends r <= ends q +. 1.)))
    records

let test_jsonl_spans () =
  let result, _, out = observed_run records_sink in
  Alcotest.(check bool) "run terminated" true (result.Engine.status = Engine.Terminated);
  let records = reparse out in
  Alcotest.(check bool) "stream is non-empty" true (records <> []);
  check_tree records;
  (* the root stands for the observed run and is written last; its one
     child is the whole chase run *)
  match List.rev records with
  | root :: _ ->
    Alcotest.(check (option string)) "root written last" None
      root.Tracectx.r_parent;
    Alcotest.(check (list string)) "the chase span is the root's one child"
      [ "chase" ]
      (List.filter_map
         (fun r ->
           if r.Tracectx.r_parent = Some root.Tracectx.r_span then
             Some r.Tracectx.r_name
           else None)
         records)
  | [] -> ()

(* Records through the one Chrome renderer: a valid array, one process
   name, X events whose args carry resolvable ids.  [sink_events] must
   close the sink it is given (finishing its Obs does). *)
let chrome_of_records sink_events =
  let buf = Buffer.create 4096 in
  let w = Tracectx.Chrome.create (Buffer.add_string buf) in
  let s =
    Tracectx.records
      ~on_series:(fun ~name ~ts_us values ->
        Tracectx.Chrome.sample w ~name ~ts_us values)
      (Tracectx.Chrome.record w)
  in
  sink_events s;
  Tracectx.Chrome.close w;
  Buffer.contents buf

let test_trace_spans () =
  let out =
    chrome_of_records (fun s ->
        let rules = Lazy.force tower in
        let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
        let obs = Obs.create [ s ] in
        ignore (observed_chase ~obs rules db);
        Obs.series obs "watchdog" [ ("step", 1.) ];
        Obs.finish obs)
  in
  match Jsonv.of_string out with
  | Error msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  | Ok (Jsonv.List events) ->
    let ph ev = str_member "ph" ev in
    let xs = List.filter (fun ev -> ph ev = Some "X") events in
    Alcotest.(check int) "one process name" 1
      (List.length (List.filter (fun ev -> ph ev = Some "M") events));
    Alcotest.(check int) "one counter sample" 1
      (List.length (List.filter (fun ev -> ph ev = Some "C") events));
    Alcotest.(check int) "nothing but M, X and C"
      (List.length events) (List.length xs + 2);
    let arg k ev =
      Option.bind (Jsonv.member "args" ev) (fun a -> str_member k a)
    in
    let spans = List.filter_map (arg "span") xs in
    Alcotest.(check int) "every X event names its span" (List.length xs)
      (List.length spans);
    let parents = List.filter_map (arg "parent") xs in
    Alcotest.(check int) "exactly one root" 1
      (List.length xs - List.length parents);
    List.iter
      (fun p ->
        Alcotest.(check bool) "parent resolves" true (List.mem p spans))
      parents;
    List.iter
      (fun ev ->
        match Option.bind (Jsonv.member "ts" ev) Jsonv.to_float_opt with
        | Some ts ->
          Alcotest.(check bool) "timestamps are non-negative" true (ts >= 0.)
        | None -> Alcotest.fail "event without a ts")
      events
  | Ok _ -> Alcotest.fail "trace top level is not an array"

(* An empty trace still closes to valid JSON; an instance that observed
   nothing still yields its root span. *)
let test_empty_trace () =
  let buf = Buffer.create 64 in
  let w = Tracectx.Chrome.create (Buffer.add_string buf) in
  Tracectx.Chrome.close w;
  (match Jsonv.of_string (Buffer.contents buf) with
  | Ok (Jsonv.List []) -> ()
  | Ok j -> Alcotest.failf "expected [], got %a" Jsonv.pp j
  | Error msg -> Alcotest.failf "empty trace invalid: %s" msg);
  match Jsonv.of_string (chrome_of_records (fun s -> Obs.finish (Obs.create [ s ]))) with
  | Ok (Jsonv.List [ m; root ]) ->
    Alcotest.(check (option string)) "process name first" (Some "M")
      (str_member "ph" m);
    Alcotest.(check (option string)) "then the root span" (Some "X")
      (str_member "ph" root)
  | Ok j -> Alcotest.failf "expected [M; X], got %a" Jsonv.pp j
  | Error msg -> Alcotest.failf "root-only trace invalid: %s" msg

(* Stray ends are dropped, unclosed spans are closed by [finish]. *)
let test_span_discipline () =
  let buf = Buffer.create 256 in
  let obs = Obs.create [ records_sink buf ] in
  Obs.span_begin obs "outer";
  Obs.span_begin obs "inner";
  Obs.span_end obs "outer";
  (* mismatched: dropped *)
  Obs.span_end obs "inner";
  Obs.span_begin obs "left-open";
  Obs.finish obs;
  let records = reparse (Buffer.contents buf) in
  check_tree records;
  let parent_name r =
    Option.map
      (fun p ->
        (List.find (fun q -> q.Tracectx.r_span = p) records).Tracectx.r_name)
      r.Tracectx.r_parent
  in
  Alcotest.(check (list (pair string (option string))))
    "finish closed everything, innermost first"
    [
      ("inner", Some "outer");
      ("left-open", Some "outer");
      ("outer", Some Tracectx.program);
      (Tracectx.program, None);
    ]
    (List.map (fun r -> (r.Tracectx.r_name, parent_name r)) records)

(* ------------------------------------------------------------------ *)
(* Histogram quantile math                                             *)
(* ------------------------------------------------------------------ *)

(* Log buckets of ratio sqrt 2: any quantile is within a factor of
   2^(1/4) ≈ 1.19 of the true sample quantile (and clamped to min/max). *)
let factor_close ~expected actual =
  let f = actual /. expected in
  f <= 1.2 && f >= 1. /. 1.2

let test_hist_quantiles () =
  let m = Metrics.create () in
  for i = 1 to 1000 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.hist_stats m "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some (count, sum, mn, mx, p50, p90, p99) ->
    Alcotest.(check int) "count" 1000 count;
    Alcotest.(check (float 1e-6)) "sum" 500500. sum;
    Alcotest.(check (float 1e-6)) "min" 1. mn;
    Alcotest.(check (float 1e-6)) "max" 1000. mx;
    Alcotest.(check bool) "p50 ~ 500" true (factor_close ~expected:500. p50);
    Alcotest.(check bool) "p90 ~ 900" true (factor_close ~expected:900. p90);
    Alcotest.(check bool) "p99 ~ 990" true (factor_close ~expected:990. p99);
    Alcotest.(check bool) "quantiles are monotone" true
      (p50 <= p90 && p90 <= p99)

let test_hist_degenerate () =
  let m = Metrics.create () in
  (* all-equal samples: every quantile is exactly the sample (clamping) *)
  for _ = 1 to 50 do
    Metrics.observe m "k" 7.25
  done;
  (match Metrics.hist_stats m "k" with
  | Some (50, _, mn, mx, p50, _, p99) ->
    Alcotest.(check (float 1e-9)) "min" 7.25 mn;
    Alcotest.(check (float 1e-9)) "max" 7.25 mx;
    Alcotest.(check (float 1e-9)) "p50 clamped" 7.25 p50;
    Alcotest.(check (float 1e-9)) "p99 clamped" 7.25 p99
  | _ -> Alcotest.fail "bad stats");
  (* absent and empty names *)
  Alcotest.(check bool) "absent name" true (Metrics.hist_stats m "none" = None);
  (* non-positive samples land in the underflow bucket but stay exact
     in min/max *)
  Metrics.observe m "z" 0.;
  Metrics.observe m "z" (-3.);
  match Metrics.hist_stats m "z" with
  | Some (2, sum, mn, mx, _, _, _) ->
    Alcotest.(check (float 1e-9)) "sum" (-3.) sum;
    Alcotest.(check (float 1e-9)) "min" (-3.) mn;
    Alcotest.(check (float 1e-9)) "max" 0. mx
  | _ -> Alcotest.fail "bad non-positive stats"

let quantile_bound_fuzz =
  let gen =
    QCheck.make
      ~print:Fmt.(str "%a" (Dump.list float))
      QCheck.Gen.(list_size (int_range 1 200) (float_range 1e-9 1e9))
  in
  qcheck ~count:200 "histogram quantiles stay within the bucket bound" gen
    (fun samples ->
      let m = Metrics.create () in
      List.iter (Metrics.observe m "h") samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      match Metrics.hist_stats m "h" with
      | None -> false
      | Some (count, _, _, _, p50, p90, p99) ->
        count = n
        && List.for_all2
             (fun q est ->
               let rank =
                 min (n - 1)
                   (max 0 (int_of_float (ceil (q *. float_of_int n)) - 1))
               in
               let exact = List.nth sorted rank in
               (* one bucket of slack on either side of the true sample
                  quantile, plus the min/max clamp *)
               est <= exact *. 1.5 && est >= exact /. 1.5
               || est = List.hd sorted
               || est = List.nth sorted (n - 1))
             [ 0.5; 0.9; 0.99 ] [ p50; p90; p99 ])

(* ------------------------------------------------------------------ *)
(* Counter determinism: planned vs naive                               *)
(* ------------------------------------------------------------------ *)

let observed_counters matcher rules db =
  with_matcher matcher (fun () ->
      let metrics = Metrics.create () in
      let obs = Obs.create ~metrics [ Sink.null ] in
      let result = observed_chase ~obs rules db in
      Obs.finish obs;
      (result, metrics))

let test_counter_determinism () =
  for seed = 0 to 14 do
    let rules = Random_tgds.guarded ~seed () in
    let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
    let _, mn = observed_counters Hom.Naive rules db in
    let _, mp = observed_counters Hom.Planned rules db in
    let ctx = Fmt.str "seed %d" seed in
    List.iter
      (fun name ->
        Alcotest.(check int)
          (Fmt.str "%s: %s" ctx name)
          (Metrics.counter_value mn name)
          (Metrics.counter_value mp name))
      [
        "chase.triggers_applied";
        "chase.triggers_skipped";
        "chase.atoms_created";
        "chase.nulls_created";
        (* same substitution sets ⇒ same number of emitted matches,
           even though the probe counts differ between matchers *)
        "chase.hom.matches";
      ];
    (* per-rule firings agree label by label *)
    let labels = Metrics.labels_of mn "chase.rule.firings" in
    Alcotest.(check (list string))
      (ctx ^ ": same rule labels") labels
      (Metrics.labels_of mp "chase.rule.firings");
    List.iter
      (fun label ->
        Alcotest.(check int)
          (Fmt.str "%s: firings[%s]" ctx label)
          (Metrics.counter_value mn ~label "chase.rule.firings")
          (Metrics.counter_value mp ~label "chase.rule.firings"))
      labels
  done

(* The profile table re-sums to the run totals. *)
let test_profile_sums () =
  let result, metrics, _ =
    observed_run (fun b -> Sink.jsonl (Buffer.add_string b))
  in
  let rows = Profile.rows metrics in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  Alcotest.(check int) "firings sum to triggers applied"
    result.Engine.triggers_applied
    (sum (fun (r : Profile.row) -> r.firings));
  Alcotest.(check int) "nulls sum to nulls created" result.Engine.nulls_created
    (sum (fun (r : Profile.row) -> r.nulls))

(* ------------------------------------------------------------------ *)
(* Sinks never raise                                                   *)
(* ------------------------------------------------------------------ *)

let event_gen =
  let open QCheck.Gen in
  let name =
    oneofl [ "a"; "chase"; "weird \"name\""; "tab\there"; "nl\nthere"; "" ]
  in
  let ts = float_range (-2.) 5. in
  let scalar =
    oneof
      [
        return Jsonv.Null;
        map (fun b -> Jsonv.Bool b) bool;
        map (fun i -> Jsonv.Int i) small_signed_int;
        map (fun f -> Jsonv.Float f) (float_range (-1e6) 1e6);
        return (Jsonv.Float nan);
        return (Jsonv.Float infinity);
        map (fun s -> Jsonv.String s) (small_string ~gen:printable);
      ]
  in
  let args = list_size (int_range 0 3) (pair (oneofl [ "k"; "x y"; "" ]) scalar) in
  let values =
    list_size (int_range 0 3) (pair (oneofl [ "v"; "rate" ]) (float_range (-1e3) 1e3))
  in
  oneof
    [
      map3 (fun name ts args -> Sink.Span_begin { name; ts; args }) name ts args;
      map2 (fun name ts -> Sink.Span_end { name; ts }) name ts;
      map3 (fun name ts args -> Sink.Instant { name; ts; args }) name ts args;
      map3 (fun name ts values -> Sink.Series { name; ts; values }) name ts values;
    ]

let pp_event fm (e : Sink.event) =
  match e with
  | Sink.Span_begin { name; ts; _ } -> Fmt.pf fm "B(%S,%g)" name ts
  | Sink.Span_end { name; ts } -> Fmt.pf fm "E(%S,%g)" name ts
  | Sink.Instant { name; ts; _ } -> Fmt.pf fm "I(%S,%g)" name ts
  | Sink.Series { name; ts; _ } -> Fmt.pf fm "S(%S,%g)" name ts

let sink_fuzz =
  let gen =
    QCheck.make
      ~print:Fmt.(str "%a" (Dump.list pp_event))
      QCheck.Gen.(list_size (int_range 0 40) event_gen)
  in
  qcheck ~count:300 "sinks never raise and always emit valid JSON" gen
    (fun events ->
      (* jsonl: every line parses *)
      let buf = Buffer.create 256 in
      let s = Sink.jsonl (Buffer.add_string buf) in
      List.iter s.Sink.emit events;
      s.Sink.flush ();
      s.Sink.close ();
      let jsonl_ok =
        List.for_all
          (fun l -> Result.is_ok (Jsonv.of_string l))
          (lines (Buffer.contents buf))
      in
      (* records through the Chrome renderer: the whole file parses as
         one array, whatever the event interleaving, holding one process
         name plus one event per record (the root included) and sample *)
      let buf2 = Buffer.create 256 in
      let w = Tracectx.Chrome.create (Buffer.add_string buf2) in
      let n = ref 0 in
      let t =
        Tracectx.records
          ~on_series:(fun ~name ~ts_us values ->
            incr n;
            Tracectx.Chrome.sample w ~name ~ts_us values)
          (fun r ->
            incr n;
            Tracectx.Chrome.record w r)
      in
      List.iter t.Sink.emit events;
      t.Sink.close ();
      Tracectx.Chrome.close w;
      let trace_ok =
        match Jsonv.of_string (Buffer.contents buf2) with
        | Ok (Jsonv.List l) -> List.length l = !n + 1
        | _ -> false
      in
      (* null and tee compose without raising *)
      let n = Sink.tee [ Sink.null; Sink.null ] in
      List.iter n.Sink.emit events;
      n.Sink.close ();
      jsonl_ok && trace_ok)

(* write_metrics output parses line by line and starts with the schema
   header when prefixed the way the CLIs do *)
let test_metrics_jsonl () =
  let _, metrics, _ = observed_run (fun _ -> Sink.null) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf Obs.metrics_header;
  Buffer.add_char buf '\n';
  let obs = Obs.create ~metrics [] in
  Obs.write_metrics obs (Buffer.add_string buf);
  Obs.finish obs;
  let ls = lines (Buffer.contents buf) in
  Alcotest.(check bool) "has summaries" true (List.length ls > 1);
  List.iteri
    (fun i l ->
      match Jsonv.of_string l with
      | Ok j ->
        if i = 0 then
          Alcotest.(check (option string)) "schema header"
            (Some "chase-metrics/1") (str_member "schema" j)
        else
          Alcotest.(check bool)
            (Fmt.str "line %d has a type" i)
            true
            (str_member "type" j <> None)
      | Error msg -> Alcotest.failf "line %d: %s" i msg)
    ls

let suite =
  [
    Alcotest.test_case "jsonl spans nest well-formedly" `Quick test_jsonl_spans;
    Alcotest.test_case "trace file is balanced valid JSON" `Quick
      test_trace_spans;
    Alcotest.test_case "empty trace closes to valid JSON" `Quick
      test_empty_trace;
    Alcotest.test_case "stray ends dropped, finish closes spans" `Quick
      test_span_discipline;
    Alcotest.test_case "histogram quantiles on 1..1000" `Quick
      test_hist_quantiles;
    Alcotest.test_case "histogram degenerate cases" `Quick test_hist_degenerate;
    quantile_bound_fuzz;
    Alcotest.test_case "planned and naive report identical counters" `Quick
      test_counter_determinism;
    Alcotest.test_case "profile rows re-sum to run totals" `Quick
      test_profile_sums;
    sink_fuzz;
    Alcotest.test_case "metrics JSONL parses with schema header" `Quick
      test_metrics_jsonl;
  ]

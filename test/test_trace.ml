(** The distributed-tracing plane: context minting and parsing, the
    never-raising shard writer, the offline Chrome-trace merge, the
    flight recorder ring, and telemetry snapshot rendering.

    The load-bearing property throughout: observability must never harm
    the observed system.  A sick trace sink turns into a black hole that
    counts drops ({!sick_sink_counts_drops}), and a chase served with a
    fault-injected shard still completes ({!sick_sink_never_blocks}). *)

open Chase

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_trace_%d_%d%s" (Unix.getpid ()) !n suffix)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Context minting and the wire form                                   *)
(* ------------------------------------------------------------------ *)

let test_ids () =
  let id = Tracectx.fresh_id () in
  Alcotest.(check int) "id length" 16 (String.length id);
  Alcotest.(check bool) "id is hex" true (Tracectx.is_hex_id id);
  Alcotest.(check bool) "ids differ" true (Tracectx.fresh_id () <> id);
  let root = Tracectx.genesis () in
  let c = Tracectx.child root in
  Alcotest.(check string) "child keeps the trace" root.Tracectx.trace
    c.Tracectx.trace;
  Alcotest.(check bool) "child gets a fresh span" true
    (c.Tracectx.span <> root.Tracectx.span)

let test_wire_roundtrip () =
  let ctx = Tracectx.genesis () in
  let s = Tracectx.to_string ctx in
  Alcotest.(check int) "wire form is 33 bytes" 33 (String.length s);
  (match Tracectx.of_string s with
  | Some ctx' -> Alcotest.(check bool) "roundtrip" true (ctx = ctx')
  | None -> Alcotest.fail "wire form did not parse");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Fmt.str "rejects %S" bad) true
        (Tracectx.of_string bad = None))
    [
      "";
      "nonsense";
      "0123456789abcdef";
      "0123456789abcdef_0123456789abcdef";
      "0123456789ABCDEF-0123456789abcdef";
      "0123456789abcde-0123456789abcdef";
      "0123456789abcdef-0123456789abcdef-ff";
    ]

(* ------------------------------------------------------------------ *)
(* The shard writer                                                    *)
(* ------------------------------------------------------------------ *)

let test_shard_write_parse () =
  let path = tmp_name ".jsonl" in
  let w = Some (Tracectx.Shard.open_ ~proc:"test" path) in
  let ctx = Tracectx.genesis () in
  (* the bracket writes the root, its child and an instant under it;
     a bracket without a writer or a context only runs its thunk *)
  let v =
    Tracectx.span w ~ctx "root" (fun () ->
        Tracectx.span w ~parent:ctx
          ~args:(fun n -> [ ("op", Chase_obs.Jsonv.String "chase"); ("n", Chase_obs.Jsonv.Int n) ])
          "child"
          (fun () ->
            Tracectx.instant w ~parent:ctx "mark";
            Tracectx.instant w "no-parent";
            Tracectx.span None ~parent:ctx "no-writer" (fun () -> 41) + 1))
  in
  Alcotest.(check int) "the bracket returns its thunk's value" 42 v;
  Option.iter Tracectx.Shard.close w;
  let records =
    String.split_on_char '\n' (read_file path)
    |> List.filter_map Tracectx.parse_shard_line
  in
  (match records with
  | [ mark; kid; root ] ->
    Alcotest.(check string) "proc" "test" root.Tracectx.r_proc;
    Alcotest.(check string) "root name" "root" root.Tracectx.r_name;
    Alcotest.(check string) "root span id" ctx.Tracectx.span
      root.Tracectx.r_span;
    Alcotest.(check (option string)) "root has no parent" None
      root.Tracectx.r_parent;
    Alcotest.(check string) "same trace" root.Tracectx.r_trace
      kid.Tracectx.r_trace;
    Alcotest.(check (option string)) "child parents on root"
      (Some ctx.Tracectx.span) kid.Tracectx.r_parent;
    Alcotest.(check bool) "args rendered from the result" true
      (List.assoc_opt "n" kid.Tracectx.r_args = Some (Chase_obs.Jsonv.Int 42));
    Alcotest.(check bool) "child inside root" true
      (kid.Tracectx.r_ts_us >= root.Tracectx.r_ts_us
      && kid.Tracectx.r_ts_us +. kid.Tracectx.r_dur_us
         <= root.Tracectx.r_ts_us +. root.Tracectx.r_dur_us);
    Alcotest.(check string) "instant name" "mark" mark.Tracectx.r_name;
    Alcotest.(check (float 0.)) "instants last 0" 0. mark.Tracectx.r_dur_us;
    Alcotest.(check (option string)) "instant parents on root"
      (Some ctx.Tracectx.span) mark.Tracectx.r_parent
  | rs -> Alcotest.failf "expected 3 records, parsed %d" (List.length rs));
  Sys.remove path;
  (* torn-tail litter parses to None, silently *)
  Alcotest.(check bool) "torn line skipped" true
    (Tracectx.parse_shard_line {|{"trace":"012345678|} = None)

let test_sick_sink_counts_drops () =
  let path = tmp_name ".jsonl" in
  let sick = ref false in
  let w = Tracectx.Shard.open_ ~check:(fun () -> !sick) ~proc:"test" path in
  let ctx = Tracectx.genesis () in
  Tracectx.span (Some w) ~ctx "before" ignore;
  sick := true;
  (* the sink died: writes must neither raise nor block, only count *)
  for i = 1 to 5 do
    Tracectx.span (Some w) ~ctx (Fmt.str "dropped%d" i) ignore
  done;
  Alcotest.(check int) "drops counted" 5 (Tracectx.Shard.drops w);
  Tracectx.Shard.close w;
  let kept =
    String.split_on_char '\n' (read_file path)
    |> List.filter_map Tracectx.parse_shard_line
  in
  Alcotest.(check int) "healthy write kept" 1 (List.length kept);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The offline merge                                                   *)
(* ------------------------------------------------------------------ *)

let test_merge_to_chrome () =
  let module Jsonv = Chase_obs.Jsonv in
  let ctx = Tracectx.genesis () in
  let kid = Tracectx.child ctx in
  let mk ~proc ~pid ~name ~ctx ?parent ~ts () =
    {
      Tracectx.r_trace = ctx.Tracectx.trace;
      r_span = ctx.Tracectx.span;
      r_parent = parent;
      r_name = name;
      r_proc = proc;
      r_pid = pid;
      r_ts_us = ts;
      r_dur_us = 10.;
      r_args = [];
    }
  in
  (* shards arrive interleaved and out of order; two processes *)
  let records =
    [
      mk ~proc:"chased" ~pid:2 ~name:"server.chase" ~ctx:kid
        ~parent:ctx.Tracectx.span ~ts:2000. ();
      mk ~proc:"chasec" ~pid:1 ~name:"client.request" ~ctx ~ts:1000. ();
    ]
  in
  let buf = Buffer.create 256 in
  Tracectx.merge_to_chrome (Buffer.add_string buf) records;
  match Jsonv.of_string (Buffer.contents buf) with
  | Ok (Jsonv.List events) ->
    let str k ev = Option.bind (Jsonv.member k ev) Jsonv.to_string_opt in
    let xs, ms =
      List.partition (fun ev -> str "ph" ev = Some "X") events
    in
    Alcotest.(check int) "one X event per span" 2 (List.length xs);
    Alcotest.(check int) "one M event per process" 2 (List.length ms);
    List.iter
      (fun m ->
        Alcotest.(check (option string)) "metadata name"
          (Some "process_name") (str "name" m))
      ms;
    (* X events sorted by start time within the trace; args carry ids *)
    (match xs with
    | [ a; b ] ->
      Alcotest.(check (option string)) "client first" (Some "client.request")
        (str "name" a);
      let args ev = Option.value ~default:Jsonv.Null (Jsonv.member "args" ev) in
      Alcotest.(check (option string)) "root trace id"
        (Some ctx.Tracectx.trace)
        (str "trace" (args a));
      Alcotest.(check (option string)) "child parent id"
        (Some ctx.Tracectx.span)
        (str "parent" (args b))
    | _ -> Alcotest.fail "partition lost events")
  | _ -> Alcotest.fail "merge did not produce an array"

(* ------------------------------------------------------------------ *)
(* The flight recorder                                                 *)
(* ------------------------------------------------------------------ *)

let test_flight_ring () =
  Flight.reset ();
  Flight.configure ~path:None;
  (* unconfigured, the ring stays empty and a dump is a no-op *)
  Flight.instant "ignored";
  Alcotest.(check int) "nothing recorded unconfigured" 0 (Flight.recorded ());
  Flight.dump ~reason:"nowhere";
  let path = tmp_name ".flight" in
  Flight.configure ~path:(Some path);
  let overflow = 7 in
  for i = 1 to Flight.size + overflow do
    Flight.instant (Fmt.str "e%d" i) ~args:[ ("i", Chase_obs.Jsonv.Int i) ]
  done;
  Alcotest.(check int) "total recorded" (Flight.size + overflow)
    (Flight.recorded ());
  let es = Flight.entries () in
  Alcotest.(check int) "ring keeps the newest [size]" Flight.size
    (List.length es);
  (match es with
  | first :: _ ->
    Alcotest.(check string) "oldest retained entry"
      (Fmt.str "e%d" (overflow + 1))
      first.Tracectx.r_name
  | [] -> Alcotest.fail "empty ring");
  (match List.rev es with
  | last :: _ ->
    Alcotest.(check string) "newest entry"
      (Fmt.str "e%d" (Flight.size + overflow))
      last.Tracectx.r_name
  | [] -> ());
  Flight.dump ~reason:"unit-test";
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "header + retained entries" (Flight.size + 1)
    (List.length lines);
  (* every dump line is a span record: the header is the recorder's
     root, every entry an instant under it *)
  let records = List.filter_map Tracectx.parse_shard_line lines in
  Alcotest.(check int) "every line parses as a record" (List.length lines)
    (List.length records);
  (match records with
  | h :: entries ->
    Alcotest.(check string) "header name" "flight" h.Tracectx.r_name;
    Alcotest.(check bool) "dump reason" true
      (List.assoc_opt "reason" h.Tracectx.r_args
      = Some (Chase_obs.Jsonv.String "unit-test"));
    List.iter
      (fun r ->
        Alcotest.(check (option string)) "entry parents on the header"
          (Some h.Tracectx.r_span) r.Tracectx.r_parent)
      entries
  | [] -> ());
  (* and the dump renders through the trace-merge renderer *)
  let buf = Buffer.create 4096 in
  Tracectx.merge_to_chrome (Buffer.add_string buf) records;
  (match Chase_obs.Jsonv.of_string (Buffer.contents buf) with
  | Ok (Chase_obs.Jsonv.List evs) ->
    Alcotest.(check int) "one X per record plus the process name"
      (List.length records + 1) (List.length evs)
  | _ -> Alcotest.fail "merged dump is not a JSON array");
  Flight.configure ~path:None;
  Flight.reset ();
  Sys.remove path

(* A traced CLI run with [--flight]: the ring also holds the records of
   the Obs instance, and a dump shows them beside the process's own
   events; without a flight path the instance feeds no ring. *)
let test_flight_from_obs () =
  Flight.reset ();
  let trace = tmp_name ".json" in
  let observe () =
    match Obs.files ~trace () with
    | Ok (obs, close) ->
      Obs.with_span obs "outer" (fun () -> Obs.instant obs "mark");
      close ()
    | Error m -> Alcotest.failf "Obs.files: %s" m
  in
  observe ();
  Alcotest.(check int) "no flight path: nothing recorded" 0 (Flight.recorded ());
  let path = tmp_name ".flight" in
  Flight.configure ~path:(Some path);
  observe ();
  let names = List.map (fun r -> r.Tracectx.r_name) (Flight.entries ()) in
  Flight.configure ~path:None;
  Flight.reset ();
  Sys.remove trace;
  Alcotest.(check (list string)) "the instance's records"
    (List.sort compare [ Tracectx.program; "outer"; "mark" ])
    (List.sort compare names)

(* ------------------------------------------------------------------ *)
(* Telemetry snapshots                                                 *)
(* ------------------------------------------------------------------ *)

let test_telemetry_renders () =
  let module Jsonv = Chase_obs.Jsonv in
  let m = Chase_obs.Metrics.create () in
  Chase_obs.Metrics.incr m ~by:3 "svc.requests";
  Chase_obs.Metrics.incr m ~label:"chase" "svc.done";
  Chase_obs.Metrics.set_gauge m "svc.queue_depth" 2.;
  for i = 1 to 100 do
    Chase_obs.Metrics.observe m "svc.latency_s" (float_of_int i /. 100.)
  done;
  let v = Telemetry.snapshot_json ~uptime_s:4.5 m in
  let str k = Option.bind (Jsonv.member k v) Jsonv.to_string_opt in
  Alcotest.(check (option string)) "schema" (Some "chase-telemetry/1")
    (str "schema");
  Alcotest.(check (option string)) "build" (Some Telemetry.build_id)
    (str "build");
  let arr k =
    match Jsonv.member k v with
    | Some (Jsonv.List l) -> l
    | _ -> Alcotest.failf "missing array %S" k
  in
  Alcotest.(check int) "two counters" 2 (List.length (arr "counters"));
  Alcotest.(check int) "one gauge" 1 (List.length (arr "gauges"));
  Alcotest.(check int) "one histogram" 1 (List.length (arr "histograms"));
  (* the JSON string form reparses *)
  (match Jsonv.of_string (Telemetry.json ~uptime_s:4.5 m) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "telemetry JSON does not reparse: %s" msg);
  let prom = Telemetry.prometheus ~uptime_s:4.5 m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Fmt.str "prom mentions %s" needle)
        true (contains prom needle))
    [
      "# TYPE chase_build_info gauge";
      "chase_uptime_seconds 4.5";
      "chase_svc_requests 3";
      "chase_svc_done{label=\"chase\"} 1";
      "chase_svc_latency_s{quantile=\"0.99\"}";
      "chase_svc_latency_s_count 100";
    ]

(* ------------------------------------------------------------------ *)
(* Satellite: a sick trace sink must never block or abort a chase      *)
(* ------------------------------------------------------------------ *)

let test_sick_sink_never_blocks () =
  let socket = tmp_name ".sock" in
  let shard = tmp_name ".jsonl" in
  (* arm the write-fault registry for the shard path: the server's
     shard writer consults it and treats any armed fault as a dead
     disk from the first write on *)
  Faults.Writes.arm shard [ Faults.Fsync_fail 1 ];
  Fun.protect
    ~finally:(fun () ->
      Faults.Writes.disarm shard;
      if Sys.file_exists shard then Sys.remove shard)
    (fun () ->
      let cfg =
        Server.config ~workers:2 ~queue_cap:8 ~trace_shard:shard
          ~default_timeout:20. ~read_timeout:5. socket
      in
      let server = Server.start cfg in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Server.wait server)
        (fun () ->
          let req =
            Proto.request ~file:"t.chase"
              ~program:"tc: e(X, Y), e(Y, Z) -> e(X, Z).\ne(a,b). e(b,c)."
              ~budget:10_000
              ~trace:(Tracectx.to_string (Tracectx.genesis ()))
              Proto.Chase
          in
          match Client.call_retry ~attempts:5 ~base_delay:0.02 ~socket req with
          | Ok (Proto.Ok_response r) ->
            Alcotest.(check int) "chase completed" 0 r.Proto.exit_code;
            Alcotest.(check bool) "derived the closure" true
              (contains r.Proto.stdout "e(a, c)")
          | Ok resp ->
            Alcotest.failf "unexpected response: %a" Proto.pp_response resp
          | Error failure ->
            Alcotest.failf "call failed: %a" Client.pp_failure failure);
      (* the server stayed healthy and dropped the spans silently: the
         shard holds no complete records *)
      let kept =
        if Sys.file_exists shard then
          String.split_on_char '\n' (read_file shard)
          |> List.filter_map Tracectx.parse_shard_line
        else []
      in
      Alcotest.(check int) "spans dropped, not written" 0 (List.length kept))

let suite =
  [
    Alcotest.test_case "ids: mint, child, hex form" `Quick test_ids;
    Alcotest.test_case "wire: roundtrip + strict rejection" `Quick
      test_wire_roundtrip;
    Alcotest.test_case "shard: write, reparse, torn tail" `Quick
      test_shard_write_parse;
    Alcotest.test_case "shard: sick sink counts drops, never raises" `Quick
      test_sick_sink_counts_drops;
    Alcotest.test_case "merge: shards to one Chrome trace" `Quick
      test_merge_to_chrome;
    Alcotest.test_case "flight: bounded ring, dump post-mortem" `Quick
      test_flight_ring;
    Alcotest.test_case "telemetry: JSON + Prometheus render" `Quick
      test_telemetry_renders;
    Alcotest.test_case "service: sick trace sink never blocks a chase" `Quick
      test_sick_sink_never_blocks;
    Alcotest.test_case "flight: fed by Obs only with a flight path" `Quick
      test_flight_from_obs;
  ]

(** [chasec] — client for the chase daemon.

    Sends one request to a running [chased] and relays the result: the
    response's stdout/stderr are printed verbatim (byte-identical to
    what the [chase] / [chase-termination] / [chase-lint] binaries
    would print — the daemon runs the same {!Chase.Driver}) and the
    op's exit code is this process's exit code.

    Transport failures follow the retry contract of {!Chase.Client}:
    connection errors, torn responses and [overloaded] answers retry
    with exponential backoff + jitter; exhausted retries exit 75
    (EX_TEMPFAIL), a definitive server rejection exits 70
    (EX_SOFTWARE).

    [--servers A,B] enables failover: servers are tried in order, a
    dead one falls through to the next, and a standby's structured
    refusal triggers promotion followed by a re-send — the promoted
    standby re-derives byte-identical responses (see the README's
    "Replication and failover").  [--stream] interleaves progress
    frames (printed to stderr) before the final response of a long
    chase; the final bytes are identical either way.

    Tracing: [--trace-out FILE] mints a root trace context, sends it
    with the request, and writes this client's own span shard to FILE;
    the server (and, through replication, the standby) write theirs —
    [chasec trace-merge *.trace] joins them into one Chrome-trace
    file.  [chasec top] renders the daemon's live telemetry snapshot;
    [--watch N] polls and shows deltas. *)

open Cmdliner
open Chase

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

let print_result verbose (r : Proto.result) =
  print_string r.Proto.stdout;
  prerr_string r.Proto.stderr;
  flush stdout;
  flush stderr;
  if verbose && r.Proto.cached then Fmt.epr "chasec: (cached)@.";
  r.Proto.exit_code

(* ------------------------------------------------------------------ *)
(* The default command: one request, relayed                           *)
(* ------------------------------------------------------------------ *)

let run socket servers op_s file variant budget timeout quiet durable
    standard query stream attempts seed trace_out verbose =
  match Proto.op_of_string op_s with
  | None ->
    Fmt.epr "chasec: unknown op %S@." op_s;
    64 (* EX_USAGE *)
  | Some op -> (
    let program =
      match (file, op) with
      | Some f, _ -> read_file f
      | ( None,
          ( Proto.Ping | Proto.Stats | Proto.Telemetry | Proto.Shutdown
          | Proto.Promote ) ) ->
        Ok ""
      | None, _ -> Error "an input FILE is required for this op"
    in
    match program with
    | Error msg ->
      Fmt.epr "chasec: %s@." msg;
      66 (* EX_NOINPUT *)
    | Ok program ->
      (* the root of the distributed trace is minted here, client-side:
         every server-side span transitively parents back to it *)
      let root = Option.map (fun _ -> Tracectx.genesis ()) trace_out in
      let t0_us = Tracectx.now_us () in
      let req =
        Proto.request ?file ~program ?variant ?budget ?timeout_s:timeout
          ~quiet ~durable ~standard ?query ~stream
          ?trace:(Option.map Tracectx.to_string root)
          op
      in
      let on_progress =
        if stream then
          Some (fun p -> Fmt.epr "chasec: %a@." Proto.pp_progress p)
        else None
      in
      let code =
        match servers with
        | Some (_ :: _ :: _ as servers) -> (
          (* failover across a replicated pair (or chain) *)
          let on_event msg = if verbose then Fmt.epr "chasec: %s@." msg in
          match
            Failover.call ~attempts_per_server:attempts ~seed ?on_progress
              ~on_event ~servers req
          with
          | Ok { Failover.response = Proto.Ok_response r; server; promoted; _ }
            ->
            if verbose && promoted then Fmt.epr "chasec: promoted %s@." server;
            print_result verbose r
          | Ok _ -> assert false (* Failover.call only returns Ok_response *)
          | Error (Failover.Rejected _ as f) ->
            Fmt.epr "chasec: %a@." Failover.pp_failure f;
            70 (* EX_SOFTWARE *)
          | Error (Failover.All_down _ as f) ->
            Fmt.epr "chasec: %a@." Failover.pp_failure f;
            75 (* EX_TEMPFAIL *))
        | Some [] | Some [ _ ] | None -> (
          let socket =
            match (servers, socket) with
            | Some (s :: _), _ -> Some s
            | _, other -> other
          in
          match socket with
          | None ->
            Fmt.epr "chasec: give --socket or --servers@.";
            64
          | Some socket -> (
            let on_retry ~attempt ~delay msg =
              if verbose then
                Fmt.epr "chasec: attempt %d failed (%s); retrying in %.3fs@."
                  (attempt + 1) msg delay
            in
            match
              Client.call_retry ~attempts ~seed ~on_retry ?on_progress ~socket
                req
            with
            | Ok (Proto.Ok_response r) -> print_result verbose r
            | Ok _ -> assert false (* call_retry only returns Ok_response *)
            | Error (Client.Gave_up _ as f) ->
              Fmt.epr "chasec: %a@." Client.pp_failure f;
              75 (* EX_TEMPFAIL *)
            | Error (Client.Rejected resp) ->
              Fmt.epr "chasec: %a@." Proto.pp_response resp;
              70 (* EX_SOFTWARE *)))
      in
      let shard = Option.map (Tracectx.Shard.open_ ~proc:"chasec") trace_out in
      Tracectx.span shard ?ctx:root ~since:t0_us
        ~args:(fun () -> [ ("op", Jsonv.String op_s); ("exit", Jsonv.Int code) ])
        "client.request" ignore;
      Option.iter Tracectx.Shard.close shard;
      code)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "s"; "socket" ] ~docv:"SOCKET"
           ~doc:"Unix-domain socket of the daemon (or use --servers).")

let servers_arg =
  let servers_conv =
    Arg.conv
      ( (fun s ->
          Ok (String.split_on_char ',' s |> List.filter (fun x -> x <> ""))),
        Fmt.(list ~sep:comma string) )
  in
  Arg.(value & opt (some servers_conv) None
       & info [ "servers" ] ~docv:"A,B"
           ~doc:"Failover list: try each socket in order; promote the \
                 first live standby when the primary is dead.")

let op_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OP"
       ~doc:"Operation: ping, decide, chase, lint, query, stats, \
             telemetry, promote or shutdown.")

let file_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"FILE"
       ~doc:"Input program/rule file (required for decide, chase, lint \
             and query).")

let variant_arg =
  Arg.(value & opt (some string) None
       & info [ "v"; "variant" ] ~docv:"VARIANT"
           ~doc:"Chase variant: oblivious, semi-oblivious or restricted \
                 (per-op default when absent); telemetry: prom for \
                 Prometheus text exposition.")

let budget_arg =
  Arg.(value & opt (some int) None
       & info [ "b"; "budget" ] ~docv:"N"
           ~doc:"Requested trigger budget (the server may grant less \
                 under load).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline (server default when absent).")

let quiet_arg =
  Arg.(value & flag
       & info [ "q"; "quiet" ] ~doc:"chase: only print run statistics.")

let durable_arg =
  Arg.(value & flag
       & info [ "durable" ]
           ~doc:"chase: spool + journal the run server-side; once \
                 acknowledged it survives daemon kills.")

let standard_arg =
  Arg.(value & opt bool true
       & info [ "standard" ] ~docv:"BOOL"
           ~doc:"decide/lint: standard databases (constants 0 and 1).")

let query_arg =
  Arg.(value & opt (some string) None
       & info [ "query" ] ~docv:"RULE"
           ~doc:"query op: one rule whose head is the answer atom, e.g. \
                 'e(X,Y), e(Y,Z) -> ans(X,Z).'")

let stream_arg =
  Arg.(value & flag
       & info [ "stream" ]
           ~doc:"chase: interleave progress frames (printed to stderr) \
                 before the final response; the final bytes are \
                 identical either way.")

let attempts_arg =
  Arg.(value & opt int 8
       & info [ "attempts" ] ~docv:"N" ~doc:"Retry attempts before giving \
                                             up.")

let seed_arg =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N" ~doc:"Jitter seed (reproducible \
                                         backoff).")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Mint a root trace context, send it with the request, \
                 and append this client's span shard to FILE (JSONL); \
                 merge shards with `chasec trace-merge'.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Report retries on stderr.")

let request_term =
  Cmdliner.Term.(
    const run $ socket_arg $ servers_arg $ op_arg $ file_arg $ variant_arg
    $ budget_arg $ timeout_arg $ quiet_arg $ durable_arg $ standard_arg
    $ query_arg $ stream_arg $ attempts_arg $ seed_arg $ trace_out_arg
    $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* trace-merge: join per-process shards into one Chrome trace          *)
(* ------------------------------------------------------------------ *)

let run_merge shards =
  let errors = ref 0 in
  let records =
    List.concat_map
      (fun path ->
        match open_in_bin path with
        | exception Sys_error msg ->
          Fmt.epr "chasec: %s@." msg;
          incr errors;
          []
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec go acc =
                match input_line ic with
                | exception End_of_file -> List.rev acc
                | line -> (
                  match Tracectx.parse_shard_line line with
                  | Some r -> go (r :: acc)
                  | None -> go acc (* torn final line: expected litter *))
              in
              go []))
      shards
  in
  if !errors > 0 then 66 (* EX_NOINPUT *)
  else begin
    Tracectx.merge_to_chrome print_string records;
    0
  end

let merge_cmd =
  let doc = "merge per-process trace shards into one Chrome-trace file" in
  let shards_arg =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"SHARD"
         ~doc:"Trace shard files (JSONL) written by --trace-out, chased \
               --trace-shard and the standby receiver.")
  in
  Cmd.v
    (Cmd.info "trace-merge" ~doc)
    Cmdliner.Term.(const run_merge $ shards_arg)

(* ------------------------------------------------------------------ *)
(* top: render the live telemetry snapshot                             *)
(* ------------------------------------------------------------------ *)

(* One polled snapshot, decoded into primitive maps for rendering and
   delta arithmetic. *)
type snap = {
  at : float;
  build : string;
  uptime : float;
  role : string;
  counters : (string * int) list;  (* "name|label" -> value *)
  gauges : (string * float) list;
  hists : (string * (int * float * float * float)) list;
      (* name|label -> count, p50, p99, sum *)
}

let get_telemetry ~socket =
  match
    Client.call_retry ~attempts:3 ~socket (Proto.request Proto.Telemetry)
  with
  | Ok (Proto.Ok_response r) when r.Proto.exit_code = 0 -> (
    match Jsonv.of_string (String.trim r.Proto.stdout) with
    | Error msg -> Error ("unparseable telemetry: " ^ msg)
    | Ok v ->
      let str k j =
        match Jsonv.member k j with Some (Jsonv.String s) -> s | _ -> ""
      in
      let num k j =
        Option.value ~default:0.
          (Option.bind (Jsonv.member k j) Jsonv.to_float_opt)
      in
      let arr k =
        match Jsonv.member k v with Some (Jsonv.List l) -> l | _ -> []
      in
      let keyed j =
        let label = str "label" j in
        str "name" j ^ if label = "" then "" else "|" ^ label
      in
      Ok
        {
          at = Unix.gettimeofday ();
          build = str "build" v;
          uptime = num "uptime_s" v;
          role = str "role" v;
          counters =
            List.map
              (fun j -> (keyed j, int_of_float (num "value" j)))
              (arr "counters");
          gauges = List.map (fun j -> (keyed j, num "value" j)) (arr "gauges");
          hists =
            List.map
              (fun j ->
                ( keyed j,
                  ( int_of_float (num "count" j),
                    num "p50" j,
                    num "p99" j,
                    num "sum" j ) ))
              (arr "histograms");
        })
  | Ok _ -> Error "server refused the telemetry request"
  | Error f -> Error (Fmt.str "%a" Client.pp_failure f)

(* Sum counters across labels: "svc.shed|pool" + "svc.shed|queue". *)
let sum_counter s name =
  List.fold_left
    (fun acc (k, v) ->
      if k = name || String.length k > String.length name
                     && String.sub k 0 (String.length name + 1) = name ^ "|"
      then acc + v
      else acc)
    0 s.counters

let render ~prev s =
  let dt =
    match prev with Some p when s.at > p.at -> s.at -. p.at | _ -> 0.
  in
  let rate now before = if dt > 0. then (float_of_int (now - before)) /. dt else 0. in
  Fmt.pr "chased %s — role %s — up %.1fs@." s.build s.role s.uptime;
  (match prev with
  | Some p ->
    let served = sum_counter s "svc.done" and served0 = sum_counter p "svc.done" in
    let shed = sum_counter s "svc.shed" and shed0 = sum_counter p "svc.shed" in
    Fmt.pr "  served %.1f/s | shed %.1f/s@." (rate served served0)
      (rate shed shed0)
  | None -> ());
  (match List.assoc_opt "svc.latency_s" s.hists with
  | Some (n, p50, p99, _) ->
    Fmt.pr "  service time: %d done, p50 %.3fs, p99 %.3fs@." n p50 p99
  | None -> ());
  (match List.assoc_opt "repl.lag" s.hists with
  | Some (n, p50, p99, _) ->
    Fmt.pr "  repl lag: %d frames, p50 %.0f, p99 %.0f@." n p50 p99
  | None -> ());
  Fmt.pr "  counters:@.";
  List.iter
    (fun (k, v) ->
      let d =
        match prev with
        | Some p -> (
          match List.assoc_opt k p.counters with
          | Some v0 when dt > 0. -> Fmt.str "  (%+.1f/s)" (rate v v0)
          | _ -> "")
        | None -> ""
      in
      Fmt.pr "    %-28s %d%s@." k v d)
    s.counters;
  if s.gauges <> [] then begin
    Fmt.pr "  gauges:@.";
    List.iter (fun (k, v) -> Fmt.pr "    %-28s %g@." k v) s.gauges
  end

let run_top socket watch =
  match socket with
  | None ->
    Fmt.epr "chasec: give --socket@.";
    64
  | Some socket -> (
    match watch with
    | None -> (
      match get_telemetry ~socket with
      | Ok s -> render ~prev:None s; 0
      | Error msg -> Fmt.epr "chasec: %s@." msg; 75)
    | Some interval ->
      let interval = Float.max 0.05 interval in
      let rec loop prev =
        match get_telemetry ~socket with
        | Error msg -> Fmt.epr "chasec: %s@." msg; 75
        | Ok s ->
          render ~prev s;
          Fmt.pr "@.";
          Thread.delay interval;
          loop (Some s)
      in
      loop None)

let top_cmd =
  let doc = "render the daemon's live telemetry snapshot" in
  let watch_arg =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECONDS"
             ~doc:"Poll every SECONDS and print deltas (req/s, shed \
                   rate) until interrupted.")
  in
  Cmd.v (Cmd.info "top" ~doc)
    Cmdliner.Term.(const run_top $ socket_arg $ watch_arg)

(* ------------------------------------------------------------------ *)

let cmd =
  let doc = "send one request to a running chased" in
  Cmd.group ~default:request_term
    (Cmd.info "chasec" ~doc)
    [ merge_cmd; top_cmd ]

let () = exit (Cmd.eval' cmd)

(** [chased] — the chase daemon.

    Serves decide / chase / lint / query requests on a Unix-domain
    socket, speaking the length-prefixed JSON frame protocol of
    {!Chase.Proto} (see the README's "Running the daemon").  Requests
    from concurrent clients are admission-controlled (bounded queue;
    overload is answered with a structured [overloaded] response
    carrying [retry_after_s], never silently dropped), budgeted from a
    shared trigger-credit pool, deduplicated by idempotency key
    (single-flight + verdict cache), and — with [--spool DIR] —
    durable: an acknowledged [durable] chase survives any kill and is
    completed by boot recovery on the next start.

    SIGINT/SIGTERM stop gracefully: drain the queue, answer everything
    accepted, write final metric summaries.

    Replication (see the README's "Replication and failover"):
    [--ship-to SOCK] makes this daemon a primary that streams its
    durable state to the standby receiver listening on SOCK, blocking
    each durable acknowledgement for up to [--sync-timeout] until the
    standby confirms; [--standby-of SOCK] makes it a standby that
    binds SOCK, soaks up the primary's state, continuously certifies
    it, and serves control ops only until a [promote] request turns it
    into an ordinary primary via boot recovery.

    The [--chaos-*] flags arm deliberate service faults (accept-loop
    death, mid-response connection drops, slow chunked responses) for
    the crash-drill harness; they have no place in production. *)

open Cmdliner
open Chase

let pair_conv name =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> Error (`Msg (Fmt.str "%s expects K:N, got %S" name s)))
    | _ -> Error (`Msg (Fmt.str "%s expects K:N, got %S" name s))
  in
  Arg.conv (parse, fun fm (a, b) -> Fmt.pf fm "%d:%d" a b)

let install_stop_signals stop =
  let stop_once = ref false in
  let graceful _ =
    if not !stop_once then begin
      stop_once := true;
      (* stop from a fresh thread: signal handlers must not block *)
      ignore (Thread.create stop ())
    end
  in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful)
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle graceful)
  with Invalid_argument _ -> ()

let run socket workers queue_cap pool_total per_request_cap min_grant
    cache_capacity spool_dir default_timeout read_timeout metrics trace_shard
    flight ship_to sync_timeout standby_of chaos_kill_accept chaos_drop
    chaos_slow =
  let faults =
    (match chaos_kill_accept with
    | Some n -> [ Faults.Kill_accept_after n ]
    | None -> [])
    @ List.map (fun (k, b) -> Faults.Drop_response_after (k, b)) chaos_drop
    @ List.map (fun (k, c) -> Faults.Slow_response (k, c)) chaos_slow
  in
  if Option.is_some ship_to && Option.is_some standby_of then begin
    Fmt.epr "chased: --ship-to and --standby-of are mutually exclusive@.";
    64 (* EX_USAGE *)
  end
  else if (Option.is_some ship_to || Option.is_some standby_of)
          && Option.is_none spool_dir then begin
    Fmt.epr "chased: replication ships the durable spool: --spool is \
             required with --ship-to / --standby-of@.";
    64
  end
  else
    match standby_of with
    | Some ship_socket -> (
      (* standby: the receiver owns the metrics file; the server this
         becomes on promotion runs without one (one file, one owner) *)
      let cfg =
        Server.config ~workers ~queue_cap ~pool_total ~per_request_cap
          ~min_grant ~cache_capacity ?spool_dir ~default_timeout
          ~read_timeout ?trace_shard ?flight ~faults socket
      in
      match Standby.start (Standby.config ?metrics ~server:cfg ~ship_socket ()) with
      | exception Unix.Unix_error (e, _, arg) ->
        Fmt.epr "chased: cannot listen on %s: %s %s@." socket
          (Unix.error_message e) arg;
        1
      | standby ->
        install_stop_signals (fun () -> Standby.stop standby);
        Fmt.epr "chased: standby on %s (ship frames on %s)@." socket
          ship_socket;
        Standby.wait standby;
        0)
    | None -> (
      (* the shipper shares the daemon's trace shard file: its sync
         spans interleave with the server's in the same JSONL *)
      let ship_shard =
        match ship_to with
        | Some _ ->
          Option.map (Tracectx.Shard.open_ ~proc:"shipper") trace_shard
        | None -> None
      in
      let shipper =
        Option.map
          (fun ship_socket ->
            Shipper.start ?shard:ship_shard
              (Shipper.config ~sync_timeout
                 ~spool_dir:(Option.get spool_dir) ~ship_socket ()))
          ship_to
      in
      let cfg =
        Server.config ~workers ~queue_cap ~pool_total ~per_request_cap
          ~min_grant ~cache_capacity ?spool_dir ~default_timeout
          ~read_timeout ?metrics ?trace_shard ?flight ~faults
          ?on_durable:(Option.map Shipper.on_durable shipper) socket
      in
      match Server.start cfg with
      | exception Unix.Unix_error (e, _, arg) ->
        Option.iter Shipper.stop shipper;
        Fmt.epr "chased: cannot listen on %s: %s %s@." socket
          (Unix.error_message e) arg;
        1
      | server ->
        install_stop_signals (fun () -> Server.stop server);
        (match ship_to with
        | Some s -> Fmt.epr "chased: listening on %s (shipping to %s)@." socket s
        | None -> Fmt.epr "chased: listening on %s@." socket);
        Server.wait server;
        Option.iter
          (fun sh ->
            (* drain what the standby has not confirmed, then let go *)
            ignore (Shipper.quiesce sh ~timeout:2.0);
            Shipper.stop sh)
          shipper;
        Option.iter Tracectx.Shard.close ship_shard;
        0)

let socket_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
       ~doc:"Unix-domain socket path to listen on.")

let workers_arg =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N" ~doc:"Worker threads.")

let queue_cap_arg =
  Arg.(value & opt int 16
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission queue capacity; a full queue sheds with a \
                 structured overloaded response.")

let pool_total_arg =
  Arg.(value & opt int 400_000
       & info [ "pool" ] ~docv:"N"
           ~doc:"Total trigger credits shared by all concurrent runs.")

let per_request_cap_arg =
  Arg.(value & opt int 100_000
       & info [ "per-request" ] ~docv:"N"
           ~doc:"Largest budget grant for a single request.")

let min_grant_arg =
  Arg.(value & opt int 1_000
       & info [ "min-grant" ] ~docv:"N"
           ~doc:"Smallest grant worth running with; below it the worker \
                 waits for credits (backpressure).")

let cache_capacity_arg =
  Arg.(value & opt int 256
       & info [ "cache" ] ~docv:"N" ~doc:"Retained results (FIFO eviction).")

let spool_arg =
  Arg.(value & opt (some string) None
       & info [ "spool" ] ~docv:"DIR"
           ~doc:"Durable request spool: acknowledged durable requests \
                 survive kills and are completed by boot recovery.")

let default_timeout_arg =
  Arg.(value & opt float 30.
       & info [ "default-timeout" ] ~docv:"SECONDS"
           ~doc:"Per-request deadline when the request carries none.")

let read_timeout_arg =
  Arg.(value & opt float 10.
       & info [ "read-timeout" ] ~docv:"SECONDS"
           ~doc:"Mid-frame stall bound per connection (slow-loris \
                 defence).")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write JSONL metric events and final summaries to $(docv).")

let trace_shard_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-shard" ] ~docv:"FILE"
           ~doc:"Append this process's distributed-trace spans to \
                 $(docv) (JSONL); merge shards with `chasec \
                 trace-merge'.")

let flight_arg =
  Arg.(value & opt (some string) None
       & info [ "flight" ] ~docv:"FILE"
           ~doc:"Flight recorder: dump the in-memory ring of recent \
                 events to $(docv) on crash-recovery boots, stalls and \
                 sheds.")

let ship_to_arg =
  Arg.(value & opt (some string) None
       & info [ "ship-to" ] ~docv:"SOCKET"
           ~doc:"Replicate: stream the durable spool to the standby \
                 receiver listening on $(docv) (requires --spool).")

let sync_timeout_arg =
  Arg.(value & opt float 0.25
       & info [ "sync-timeout" ] ~docv:"SECONDS"
           ~doc:"How long a durable acknowledgement waits for the \
                 standby's confirmation before degrading to \
                 asynchronous shipping; 0 never waits.")

let standby_of_arg =
  Arg.(value & opt (some string) None
       & info [ "standby-of" ] ~docv:"SOCKET"
           ~doc:"Run as a standby: bind $(docv) for the primary's ship \
                 frames, refuse work until promoted (requires --spool).")

let chaos_kill_accept_arg =
  Arg.(value & opt (some int) None
       & info [ "chaos-kill-accept" ] ~docv:"N"
           ~doc:"Chaos: the accept loop dies after the $(docv)-th \
                 connection.")

let chaos_drop_arg =
  Arg.(value & opt_all (pair_conv "--chaos-drop-response") []
       & info [ "chaos-drop-response" ] ~docv:"K:BYTES"
           ~doc:"Chaos: cut the $(i,K)-th response after $(i,BYTES) bytes \
                 and drop the connection (repeatable).")

let chaos_slow_arg =
  Arg.(value & opt_all (pair_conv "--chaos-slow-response") []
       & info [ "chaos-slow-response" ] ~docv:"K:CHUNK"
           ~doc:"Chaos: dribble the $(i,K)-th response out $(i,CHUNK) \
                 bytes at a time (repeatable).")

let cmd =
  let doc = "serve chase decide/chase/lint/query requests on a socket" in
  Cmd.v
    (Cmd.info "chased" ~doc)
    Cmdliner.Term.(
      const run $ socket_arg $ workers_arg $ queue_cap_arg $ pool_total_arg
      $ per_request_cap_arg $ min_grant_arg $ cache_capacity_arg $ spool_arg
      $ default_timeout_arg $ read_timeout_arg $ metrics_arg
      $ trace_shard_arg $ flight_arg $ ship_to_arg $ sync_timeout_arg
      $ standby_of_arg
      $ chaos_kill_accept_arg $ chaos_drop_arg $ chaos_slow_arg)

let () = exit (Cmd.eval' cmd)

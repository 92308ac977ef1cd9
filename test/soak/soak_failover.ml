(** Process-level failover soak: a real replicated [chased] pair.

    A standby ([--standby-of]) runs for the whole drill while a primary
    ([--ship-to], semi-synchronous) is SIGKILLed and restarted at
    awkward moments with concurrent durable traffic in flight.  After
    the last kill the failover client discovers the dead primary,
    promotes the standby over the wire, and the drill audits the
    doctrine: the shipped spool drains (an acknowledged durable request
    is never lost), every request the dead primary acknowledged is
    re-served by the promoted standby byte-identical to the in-process
    {!Chase.Driver}, and the receiver's metrics file — replication lag
    histogram included — validates.

    Wall-clock bounded: [--seconds N] (default 20).  Exits non-zero on
    any violated invariant, prints the tallies (takeover latency
    included) either way.

    This complements the in-process replica suite in [test_replica.ml]:
    that one injects ship-stream faults inside one process; this one
    proves promotion across real process boundaries and real SIGKILL. *)

open Chase

let usage = "soak_failover --daemon PATH [--seconds N] [--dir DIR]"

let fail fmt =
  Fmt.kstr (fun m -> prerr_endline ("soak-failover: FAIL: " ^ m); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let daemon = ref ""
let seconds = ref 20.
let dir = ref ""

let () =
  Arg.parse
    [
      ("--daemon", Arg.Set_string daemon, "PATH chased executable");
      ("--seconds", Arg.Set_float seconds, "N wall-clock bound (default 20)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !daemon = "" then (
    prerr_endline usage;
    exit 64)

let dir =
  if !dir <> "" then !dir
  else
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "chase-soak-failover-%d" (Unix.getpid ()))

let () = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
let primary_socket = Filename.concat dir "primary.sock"
let standby_socket = Filename.concat dir "standby.sock"
let ship_socket = Filename.concat dir "ship.sock"
let spool_p = Filename.concat dir "spool-primary"
let spool_s = Filename.concat dir "spool-standby"
let metrics = Filename.concat dir "metrics.jsonl"
let daemon_log = Filename.concat dir "daemon.log"

(* only gracefully-shut-down processes get a trace shard: the primary is
   SIGKILLed mid-request, which could orphan child spans; the standby
   lives for the whole drill and the audit replays are traced here *)
let trace_standby = Filename.concat dir "standby.trace"
let trace_client = Filename.concat dir "client.trace"

(* ------------------------------------------------------------------ *)
(* Workload (see soak.ml for the sizing rationale)                     *)

let cycle_graph n =
  let b = Buffer.create 256 in
  Buffer.add_string b "t: e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "e(v%d, v%d).\n" i ((i + 1) mod n))
  done;
  Buffer.contents b

let budget = 8_000

let driver_bytes op ~src ~quiet =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  let fout = Format.formatter_of_buffer out
  and ferr = Format.formatter_of_buffer err in
  let code =
    match op with
    | Proto.Chase ->
      Driver.chase
        (Driver.chase_opts ~budget ~max_atoms:(4 * budget) ~quiet ())
        ~file:"soak.chase" ~src ~out:fout ~err:ferr
    | _ -> assert false
  in
  Format.pp_print_flush fout ();
  Format.pp_print_flush ferr ();
  (code, Buffer.contents out, Buffer.contents err)

type expected = { req : Proto.request; code : int; out : string; err : string }

let corpus =
  List.map
    (fun (src, quiet) ->
      let code, out, err = driver_bytes Proto.Chase ~src ~quiet in
      let req =
        Proto.request ~file:"soak.chase" ~program:src ~budget ~quiet
          ~durable:true Proto.Chase
      in
      { req; code; out; err })
    [ (cycle_graph 16, true); (cycle_graph 17, true); (cycle_graph 12, false) ]

(* ------------------------------------------------------------------ *)
(* Tallies                                                             *)

let m = Mutex.create ()
let kills = ref 0
let requests = ref 0
let oks = ref 0
let gave_up = ref 0
let parity = ref 0
let acked : (string, expected) Hashtbl.t = Hashtbl.create 16

let bump r = Mutex.protect m (fun () -> incr r)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        !live_pids)

let spawn args =
  let log =
    Unix.openfile daemon_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Unix.create_process !daemon
      (Array.of_list (!daemon :: args))
      Unix.stdin Unix.stdout log
  in
  Unix.close log;
  live_pids := pid :: !live_pids;
  pid

let reap pid = live_pids := List.filter (fun p -> p <> pid) !live_pids

let await_socket pid socket =
  let rec poll n =
    if Sys.file_exists socket then ()
    else if n = 0 then fail "daemon never bound %s" socket
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st ->
        reap pid;
        fail "daemon died on startup (%s); see %s"
          (match st with
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s)
          daemon_log);
      ignore (Unix.select [] [] [] 0.05);
      poll (n - 1)
    end
  in
  poll 200;
  pid

let start_standby () =
  if Sys.file_exists standby_socket then Sys.remove standby_socket;
  await_socket
    (spawn
       [
         standby_socket; "--spool"; spool_s; "--standby-of"; ship_socket;
         "--metrics"; metrics; "--trace-shard"; trace_standby;
       ])
    standby_socket

let start_primary () =
  if Sys.file_exists primary_socket then Sys.remove primary_socket;
  await_socket
    (spawn
       [
         primary_socket; "--spool"; spool_p; "--ship-to"; ship_socket;
         "--sync-timeout"; "1.0"; "--workers"; "4"; "--queue"; "8";
       ])
    primary_socket

let sigkill pid =
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  reap pid;
  bump kills

(* ------------------------------------------------------------------ *)
(* Client traffic                                                      *)

let check_parity who e (r : Proto.result) =
  if
    r.Proto.exit_code <> e.code || r.Proto.stdout <> e.out
    || r.Proto.stderr <> e.err
  then
    fail "%s parity: op %s got (%d, %S, %S), want (%d, %S, %S)" who
      (Proto.op_to_string e.req.Proto.op)
      r.Proto.exit_code r.Proto.stdout r.Proto.stderr e.code e.out e.err;
  bump parity

let requester stop seed =
  let i = ref 0 in
  while not !stop do
    let e = List.nth corpus (!i mod List.length corpus) in
    incr i;
    bump requests;
    (match
       Client.call_retry ~attempts:2 ~seed:(seed + !i) ~socket:primary_socket
         e.req
     with
    | Ok (Proto.Ok_response r) ->
      bump oks;
      check_parity "primary" e r;
      (* acknowledged on the primary: the standby now owes these bytes *)
      Mutex.protect m (fun () ->
          Hashtbl.replace acked (Proto.request_key e.req) e)
    | Ok _ -> assert false
    | Error (Client.Rejected (Proto.Overloaded _)) -> () (* structured shed *)
    | Error (Client.Rejected resp) ->
      fail "definitive rejection: %a" Proto.pp_response resp
    | Error (Client.Gave_up _) -> bump gave_up (* daemon was dead: fine *));
    ignore (Unix.select [] [] [] 0.01)
  done

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. !seconds in
  let stop = ref false in
  let standby_pid = start_standby () in
  let threads =
    List.init 4 (fun k -> Thread.create (fun () -> requester stop (k * 1000)) ())
  in
  (* kill/restart loop against the same primary spool: each new life
     runs boot recovery, reconnects the shipper and resyncs the standby.
     Leave a reserve for promotion and the audit. *)
  let reserve = Float.max 6. (!seconds /. 4.) in
  let cycle = ref 0 in
  let last_pid = ref None in
  while Unix.gettimeofday () < deadline -. reserve do
    let pid = start_primary () in
    ignore
      (Unix.select [] [] [] (0.15 +. (0.05 *. float_of_int (!cycle mod 7))));
    if Unix.gettimeofday () < deadline -. reserve then begin
      sigkill pid;
      incr cycle
    end
    else last_pid := Some pid
  done;
  (* the final life dies too — this kill is the one we fail over from *)
  let t_kill =
    match !last_pid with
    | Some pid ->
      sigkill pid;
      Unix.gettimeofday ()
    | None ->
      let pid = start_primary () in
      ignore (Unix.select [] [] [] 0.2);
      sigkill pid;
      Unix.gettimeofday ()
  in
  stop := true;
  List.iter Thread.join threads;
  if Hashtbl.length acked = 0 then
    fail "no durable request was ever acknowledged: kills landed too early";

  (* failover: the client discovers the dead primary, promotes the
     standby over the wire, and the promoted standby serves *)
  let probe = (List.hd corpus).req in
  let takeover =
    match
      Failover.call ~attempts_per_server:6 ~base_delay:0.05 ~seed:1
        ~servers:[ primary_socket; standby_socket ]
        probe
    with
    | Ok o ->
      if o.Failover.server <> standby_socket then
        fail "served by %s, wanted the standby" o.Failover.server;
      if not o.Failover.promoted then
        fail "the standby was already primary before promotion";
      (match o.Failover.response with
      | Proto.Ok_response r -> check_parity "takeover" (List.hd corpus) r
      | resp -> fail "takeover answered %a" Proto.pp_response resp);
      Unix.gettimeofday () -. t_kill
    | Error f -> fail "failover: %a" Failover.pp_failure f
  in

  (* zero lost acknowledged requests: the shipped spool drains *)
  let spool = Spool.create ~dir:spool_s in
  let rec drain n =
    match Spool.pending spool with
    | [] -> ()
    | keys when n = 0 ->
      fail "lost acknowledged requests: %d still pending after promotion"
        (List.length keys)
    | _ ->
      ignore (Unix.select [] [] [] 0.1);
      drain (n - 1)
  in
  drain 300;
  (* every request the dead primary acknowledged, byte-identical; the
     audit replays are traced — this process writes the client roots *)
  let shard = Tracectx.Shard.open_ ~proc:"soak" trace_client in
  Hashtbl.iter
    (fun _ e ->
      bump requests;
      let root = Tracectx.genesis () in
      let req = { e.req with Proto.trace = Some (Tracectx.to_string root) } in
      match
        Tracectx.span (Some shard) ~ctx:root "client.request" (fun () ->
            Client.call_retry ~attempts:4 ~socket:standby_socket req)
      with
      | Ok (Proto.Ok_response r) ->
        bump oks;
        check_parity "standby" e r
      | Ok _ -> assert false
      | Error f -> fail "standby replay failed: %a" Client.pp_failure f)
    acked;
  Tracectx.Shard.close shard;
  (* graceful shutdown of the promoted standby *)
  (match
     Client.call_retry ~attempts:4 ~socket:standby_socket
       (Proto.request Proto.Shutdown)
   with
  | Ok _ -> ()
  | Error f -> fail "shutdown failed: %a" Client.pp_failure f);
  ignore (Unix.waitpid [] standby_pid);
  reap standby_pid;

  (* the receiver's metrics file must carry the replication artifacts
     (obs_check validates the structure separately) *)
  let ic = open_in metrics in
  let saw_lag = ref false and saw_applied = ref false in
  (try
     while true do
       let line = input_line ic in
       if contains line "repl.lag" then saw_lag := true;
       if contains line "repl.applied" then saw_applied := true
     done
   with End_of_file -> close_in ic);
  if not !saw_applied then fail "metrics never recorded repl.applied";
  if not !saw_lag then fail "metrics never recorded the repl.lag histogram";

  let k = !kills and rq = !requests and ok = !oks in
  Printf.printf
    "soak-failover OK: %d kills, takeover in %.3fs, %d requests (%d ok, %d \
     gave up during kills), %d acknowledged audited, %d parity checks, %.1fs\n"
    k takeover rq ok !gave_up (Hashtbl.length acked) !parity
    (Unix.gettimeofday () -. t0);
  if k < 3 then fail "too few kills (%d) for a meaningful soak" k;
  if !parity = 0 then fail "no parity checks ran";
  if ok = 0 then fail "no request ever succeeded"

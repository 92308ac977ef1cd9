(** Process-level chaos soak: a real [chased] under SIGKILL loops.

    Repeatedly forks the daemon, fires concurrent client traffic at it
    (durable and plain), kills it with SIGKILL at awkward moments, and
    restarts it against the same spool.  A final graceful life must
    drain the spool (boot recovery — an acknowledged durable request is
    never lost), serve every durable request byte-identical to the
    in-process {!Chase.Driver} (what the single-shot CLIs print), and
    shut down cleanly with a valid metrics file.

    Wall-clock bounded: [--seconds N] (default 20).  Exits non-zero on
    any violated invariant and prints the tallies either way.

    This complements the in-process soak in [test_service_chaos.ml]:
    that one injects faults inside a single process; this one proves the
    same invariants across real process boundaries and real SIGKILL. *)

open Chase

let usage = "soak --daemon PATH [--seconds N] [--dir DIR]"

let fail fmt = Fmt.kstr (fun m -> prerr_endline ("soak: FAIL: " ^ m); exit 1) fmt

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
      (Printf.sprintf "chase-soak-%d" (Unix.getpid ()))

let () = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
let socket = Filename.concat dir "chased.sock"
let spool_dir = Filename.concat dir "spool"
let metrics = Filename.concat dir "metrics.jsonl"
let daemon_log = Filename.concat dir "daemon.log"

(* per-process trace shards: the daemon appends its spans to one file
   across all its lives, this process writes the client roots; `make
   soak` merges them with `chasec trace-merge` and validates the tree *)
let trace_daemon = Filename.concat dir "chased.trace"
let trace_client = Filename.concat dir "client.trace"

(* ------------------------------------------------------------------ *)
(* Workload: one terminating program, sized so a run takes long enough
   for kills to land mid-flight; budget generous so the output is the
   terminated instance (exhaustion output embeds wall-clock time and
   could never be byte-stable). *)

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
    | Proto.Decide ->
      Driver.decide
        (Driver.decide_opts ~budget ())
        ~file:"soak.chase" ~src ~out:fout ~err:ferr
    | _ -> assert false
  in
  Format.pp_print_flush fout ();
  Format.pp_print_flush ferr ();
  (code, Buffer.contents out, Buffer.contents err)

type expected = { req : Proto.request; code : int; out : string; err : string }

let corpus =
  List.map
    (fun (op, src, quiet, durable) ->
      let code, out, err = driver_bytes op ~src ~quiet in
      let req =
        Proto.request ~file:"soak.chase" ~program:src ~budget ~quiet ~durable
          op
      in
      { req; code; out; err })
    [
      (Proto.Chase, cycle_graph 16, true, true);
      (Proto.Chase, cycle_graph 17, true, true);
      (Proto.Chase, cycle_graph 12, false, false);
      (Proto.Decide, "p(X, Y) -> p(Y, Z).\n", false, false);
    ]

(* ------------------------------------------------------------------ *)
(* Tallies                                                             *)

let m = Mutex.create ()
let kills = ref 0
let requests = ref 0
let oks = ref 0
let gave_up = ref 0
let parity = ref 0

let bump r = Mutex.protect m (fun () -> incr r)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)

(* The running daemon, if any: a failing soak exits through [fail], and
   must not leave it behind. *)
let live_pid = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun pid ->
          try
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          with Unix.Unix_error _ -> ())
        !live_pid)

let start_daemon ~with_metrics =
  if Sys.file_exists socket then Sys.remove socket;
  let log =
    Unix.openfile daemon_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let args =
    [ !daemon; socket; "--spool"; spool_dir; "--workers"; "4"; "--queue"; "8";
      "--trace-shard"; trace_daemon ]
    @ (if with_metrics then [ "--metrics"; metrics ] else [])
  in
  let pid =
    Unix.create_process !daemon (Array.of_list args) Unix.stdin Unix.stdout log
  in
  live_pid := Some pid;
  Unix.close log;
  (* wait for the socket to appear, but bail if the daemon died *)
  let rec poll n =
    if Sys.file_exists socket then ()
    else if n = 0 then fail "daemon never bound %s" socket
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st ->
        live_pid := None;
        fail "daemon died on startup (%s)"
          (match st with
          | Unix.WEXITED c -> Printf.sprintf "exit %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
      ignore (Unix.select [] [] [] 0.05);
      poll (n - 1)
    end
  in
  poll 200;
  pid

let sigkill pid =
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  live_pid := None;
  bump kills

(* ------------------------------------------------------------------ *)
(* Client traffic                                                      *)

let check_parity e (r : Proto.result) =
  if
    r.Proto.exit_code <> e.code || r.Proto.stdout <> e.out
    || r.Proto.stderr <> e.err
  then
    fail "parity: op %s got (%d, %S, %S), want (%d, %S, %S)"
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
       Client.call_retry ~attempts:2 ~seed:(seed + !i) ~socket e.req
     with
    | Ok (Proto.Ok_response r) ->
      bump oks;
      check_parity e r
    | Ok _ -> assert false
    | Error (Client.Rejected (Proto.Overloaded _)) -> () (* structured shed *)
    | Error (Client.Rejected resp) ->
      fail "definitive rejection: %a" Proto.pp_response resp
    | Error (Client.Gave_up _) -> bump gave_up (* daemon was dead: fine *));
    ignore (Unix.select [] [] [] 0.01)
  done

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let () =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. !seconds in
  let stop = ref false in
  let threads = List.init 6 (fun k -> Thread.create (fun () -> requester stop (k * 1000)) ()) in
  (* kill/restart loop: leave a quarter of the bound (at least 5s) for
     the final graceful life *)
  let reserve = Float.max 5. (!seconds /. 4.) in
  let cycle = ref 0 in
  while Unix.gettimeofday () < deadline -. reserve do
    let pid = start_daemon ~with_metrics:false in
    (* vary the lifetime so kills land at different run phases *)
    ignore (Unix.select [] [] [] (0.15 +. (0.05 *. float_of_int (!cycle mod 7))));
    sigkill pid;
    incr cycle
  done;
  stop := true;
  List.iter Thread.join threads;

  (* final graceful life: boot recovery must drain the spool *)
  let pid = start_daemon ~with_metrics:true in
  let spool = Spool.create ~dir:spool_dir in
  let rec drain n =
    match Spool.pending spool with
    | [] -> ()
    | keys when n = 0 ->
      fail "lost acknowledged requests: %d still pending after recovery"
        (List.length keys)
    | _ ->
      ignore (Unix.select [] [] [] 0.1);
      drain (n - 1)
  in
  drain 300;
  (* replay every durable request: served from the spool, byte-identical.
     Each replay is traced — this process mints the root and writes the
     client shard, the daemon writes its own server spans *)
  let shard = Tracectx.Shard.open_ ~proc:"soak" trace_client in
  List.iter
    (fun e ->
      if e.req.Proto.durable then begin
        bump requests;
        let root = Tracectx.genesis () in
        let req = { e.req with Proto.trace = Some (Tracectx.to_string root) } in
        match
          Tracectx.span (Some shard) ~ctx:root "client.request" (fun () ->
              Client.call_retry ~attempts:4 ~socket req)
        with
        | Ok (Proto.Ok_response r) ->
          bump oks;
          check_parity e r
        | Ok _ -> assert false
        | Error f -> fail "durable replay failed: %a" Client.pp_failure f
      end)
    corpus;
  Tracectx.Shard.close shard;
  (* graceful shutdown *)
  (match Client.call_retry ~attempts:4 ~socket (Proto.request Proto.Shutdown) with
  | Ok _ -> ()
  | Error f -> fail "shutdown failed: %a" Client.pp_failure f);
  ignore (Unix.waitpid [] pid);
  live_pid := None;

  let k = !kills and rq = !requests and ok = !oks in
  Printf.printf
    "soak OK: %d kills, %d requests (%d ok, %d gave up during kills), %d \
     parity checks, %.1fs\n"
    k rq ok !gave_up !parity
    (Unix.gettimeofday () -. t0);
  if k < 3 then fail "too few kills (%d) for a meaningful soak" k;
  if !parity = 0 then fail "no parity checks ran";
  if ok = 0 then fail "no request ever succeeded"

(** The chase daemon: a Unix-domain-socket server multiplexing
    decide / chase / lint / query requests from concurrent clients over
    the {!Proto} frame protocol.

    Request path: conn thread reads a frame, takes the idempotency key
    in the {!Cache} (hit → answer inline; join → block on the leader's
    flight), and as leader submits the job to the {!Admission}
    controller — which sheds with a structured [overloaded] +
    [retry_after] when the queue is full.  A worker draws its trigger
    budget from the shared {!Pool} (backpressure), runs the op through
    the shared {!Driver} (so the bytes match the CLIs), publishes the
    flight and responds on the originating connection.  Responses go
    out in completion order; requests pipeline by [id].

    Durability: a [durable:true] chase is acknowledged by spooling the
    request (fsync) {e before} it runs, journals through the spool's
    per-key journal path, and writes its response bytes back to the
    spool.  Boot recovery ({!start}) re-runs every acknowledged request
    without a response, checking each step against the journal the kill
    left and appending only past its end, so acknowledged requests are
    never lost.  The request itself is already durable: recovery neither
    rewrites nor re-ships it, so a boot never waits on a standby's ack
    before it starts serving.

    Chaos hooks: the config carries {!Chase_engine.Faults.service_fault}s
    (accept-loop death, mid-response connection drops, slow chunked
    responses), and {!kill} is a simulated [SIGKILL] — every fd is
    closed, every in-flight token cancelled, nothing more is written
    (in particular no [.resp]) — for in-process crash drills. *)

module Faults = Chase_engine.Faults
module Limits = Chase_engine.Limits
module Variant = Chase_engine.Variant
module Engine = Chase_engine.Engine
module Watchdog = Chase_engine.Watchdog
module Obs = Chase_obs.Obs
module Tracectx = Chase_obs.Tracectx
module Flight = Chase_obs.Flight
module Telemetry = Chase_obs.Telemetry
module Jsonv = Chase_obs.Jsonv

type config = {
  socket : string;
  workers : int;
  queue_cap : int;
  pool_total : int;
  per_request_cap : int;
  min_grant : int;
  cache_capacity : int;
  spool_dir : string option;
  default_timeout : float;
  max_frame : int;
  read_timeout : float;  (** slow-loris bound on mid-frame stalls *)
  metrics : string option;
  trace_shard : string option;
      (** per-process JSONL span shard: requests arriving with a trace
          context get server-side spans appended here, for offline
          joining by [chasec trace-merge] *)
  flight : string option;
      (** where the flight recorder appends its JSONL post-mortems
          (crash-recovery boots, load sheds); [None] disables dumping *)
  faults : Faults.service_fault list;
  on_durable :
    ([ `Req | `Resp ] -> key:string -> trace:string option -> string -> unit)
    option;
      (** called with the exact bytes just made durable in the spool,
          after the local fsync and before the client is answered — the
          replication shipper's semi-synchronous hook.  The server knows
          nothing about replication; it only promises the ordering.
          [trace] is the server span's context when the request carried
          one, so shipped frames can parent their spans under it *)
}

let config ?(workers = 4) ?(queue_cap = 16) ?(pool_total = 400_000)
    ?(per_request_cap = 100_000) ?(min_grant = 1_000) ?(cache_capacity = 256)
    ?spool_dir ?(default_timeout = 30.) ?(max_frame = Proto.default_max_frame)
    ?(read_timeout = 10.) ?metrics ?trace_shard ?flight ?(faults = [])
    ?on_durable socket =
  {
    socket;
    workers;
    queue_cap;
    pool_total;
    per_request_cap;
    min_grant;
    cache_capacity;
    spool_dir;
    default_timeout;
    max_frame;
    read_timeout;
    metrics;
    trace_shard;
    flight;
    faults;
    on_durable;
  }

type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;  (* one response frame at a time *)
  mutable alive : bool;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  pool : Pool.t;
  cache : Cache.t;
  adm : Admission.t;
  spool : Spool.t option;
  obs : Obs.t;
  obs_close : unit -> unit;
  obs_mu : Mutex.t;  (* Obs/Metrics are not thread-safe *)
  started : float;  (* boot wall-clock, for uptime reporting *)
  shard : Tracectx.Shard.writer option;  (* internally thread-safe *)
  mutable last_flight_dump : float;  (* shed post-mortems, rate-limited *)
  mu : Mutex.t;  (* conns / tokens / counters *)
  mutable conns : conn list;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable tokens : Limits.Cancel.t list;
  mutable accepts : int;
  mutable responses : int;
  mutable bad_frames : int;
  mutable cache_hits : int;
  mutable recovered : int;
  mutable killed : bool;
  mutable stopping : bool;
  cond : Condition.t;  (* signalled when [finished] flips *)
  mutable finished : bool;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Every Obs touch goes through this: the Metrics registry is a bare
   Hashtbl and spans are stack-matched, neither safe under the worker
   threads. *)
let with_obs t f =
  Mutex.lock t.obs_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mu) (fun () -> f t.obs)

let gauge_depth t =
  with_obs t (fun obs ->
      Obs.set_gauge obs "svc.queue_depth" (float_of_int (Admission.depth t.adm)))

(* ------------------------------------------------------------------ *)
(* Trace context and the flight recorder                               *)
(* ------------------------------------------------------------------ *)

(* The client's root context of a traced request, when this server
   writes a shard: the server span is minted under it, and every span
   of the request under the server span.  Tracing is free for everyone
   else. *)
let trace_root t req =
  match t.shard with
  | Some _ -> Option.bind req.Proto.trace Tracectx.of_string
  | None -> None

let status_of_response = function
  | Proto.Ok_response r -> if r.Proto.cached then "ok-cached" else "ok"
  | Proto.Progress _ -> "progress"
  | Proto.Overloaded _ -> "overloaded"
  | Proto.Bad_frame _ -> "bad-frame"
  | Proto.Bad_request _ -> "bad-request"
  | Proto.Server_error _ -> "error"

(* Anomaly post-mortems: at most one shed dump per window, so a
   sustained overload yields evidence without drowning the disk. *)
let flight_dump_limited t ~reason =
  let now = Unix.gettimeofday () in
  let due =
    locked t (fun () ->
        if now -. t.last_flight_dump >= 5.0 then begin
          t.last_flight_dump <- now;
          true
        end
        else false)
  in
  if due then Flight.dump ~reason

(* ------------------------------------------------------------------ *)
(* Responding, with chaos faults applied                               *)
(* ------------------------------------------------------------------ *)

let find_drop t k =
  List.find_map
    (function
      | Faults.Drop_response_after (k', bytes) when k' = k -> Some bytes
      | _ -> None)
    t.cfg.faults

let find_slow t k =
  List.find_map
    (function
      | Faults.Slow_response (k', chunk) when k' = k -> Some chunk
      | _ -> None)
    t.cfg.faults

let write_slice fd s pos len =
  let b = Bytes.of_string s in
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !pos !remaining in
    pos := !pos + n;
    remaining := !remaining - n
  done

(* Send one response frame on the connection.  The k-th response
   system-wide can be chaos-shaped: cut after N bytes (then the
   connection dies), or dribbled out in tiny chunks.  Write errors mark
   the connection dead — the client's problem, handled by its retry. *)
let respond t conn ~id ?trace resp =
  let k = locked t (fun () -> t.responses <- t.responses + 1; t.responses) in
  let frame = Proto.frame_string (Proto.encode_response ?trace ~id resp) in
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive && not t.killed then
        try
          match find_drop t k with
          | Some bytes ->
            write_slice conn.fd frame 0 (min bytes (String.length frame));
            conn.alive <- false;
            (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
             with Unix.Unix_error _ -> ());
            (try Unix.close conn.fd with Unix.Unix_error _ -> ())
          | None -> (
            match find_slow t k with
            | Some chunk ->
              let chunk = max 1 chunk in
              let len = String.length frame in
              let pos = ref 0 in
              while !pos < len do
                write_slice conn.fd frame !pos (min chunk (len - !pos));
                pos := !pos + chunk;
                Thread.yield ()
              done
            | None -> write_slice conn.fd frame 0 (String.length frame))
        with Unix.Unix_error _ -> conn.alive <- false)

(* ------------------------------------------------------------------ *)
(* Running one request through the Driver                              *)
(* ------------------------------------------------------------------ *)

let buffer_formatter () =
  let buf = Buffer.create 512 in
  let fm = Format.formatter_of_buffer buf in
  (buf, fm)

(* Resume/recovery chatter is the daemon's business, not the client's: a
   kill-resumed durable run must answer byte-identically to a fresh one. *)
let sink_formatter = Format.make_formatter (fun _ _ _ -> ()) ignore

let variant_of req ~default =
  match req.Proto.variant with
  | None -> Ok default
  | Some s -> (
    match Variant.of_string s with
    | Some v -> Ok v
    | None -> Error (Fmt.str "unknown chase variant %S" s))

(* Execute the op with the granted budget; returns the result plus
   whether it is safe to retain.  Deadline- or cancel-poisoned results
   must not be cached (a retry with a fresh deadline deserves a fresh
   run), and neither may anything whose bytes embed wall-clock time —
   exhaustion diagnostics, Unknown decide verdicts. *)
let execute t req ~grant ~timeout ~cancel ~progress =
  let out_buf, out = buffer_formatter () in
  let err_buf, err = buffer_formatter () in
  let breached = ref false in
  let on_status = function
    | Engine.Exhausted _ ->
      (* every exhaustion diagnostic embeds wall-clock time
         ({!Limits.Exhaustion.pp} prints elapsed seconds): replaying
         such bytes from the cache would serve a stale clock, so no
         exhausted run is ever a cache candidate *)
      breached := true
    | Engine.Terminated -> ()
  in
  let finish exit_code =
    Format.pp_print_flush out ();
    Format.pp_print_flush err ();
    let result =
      {
        Proto.exit_code;
        stdout = Buffer.contents out_buf;
        stderr = Buffer.contents err_buf;
        cached = false;
      }
    in
    (result, (not !breached) && not (Limits.Cancel.is_cancelled cancel))
  in
  let file = req.Proto.file and src = req.Proto.program in
  match req.Proto.op with
  | Proto.Decide -> (
    match variant_of req ~default:Variant.Semi_oblivious with
    | Error msg ->
      Fmt.pf err "%s@." msg;
      breached := false;
      finish 1
    | Ok variant ->
      let o =
        Driver.decide_opts ~variant ~budget:grant ~standard:req.Proto.standard
          ~timeout ~cancel
          ~on_verdict:(fun v ->
            (* an Unknown verdict embeds elapsed wall time in its
               evidence: never a cache candidate *)
            match Chase_termination.Verdict.answer v with
            | Chase_termination.Verdict.Unknown -> breached := true
            | _ -> ())
          ()
      in
      finish (Driver.decide o ~file ~src ~out ~err))
  | Proto.Chase -> (
    match variant_of req ~default:Variant.Oblivious with
    | Error msg ->
      Fmt.pf err "%s@." msg;
      finish 1
    | Ok variant ->
      let journal, resume, resume_or_start =
        match (req.Proto.durable, t.spool) with
        | true, Some spool ->
          let jpath = Spool.jnl_path spool ~key:(Proto.request_key req) in
          if Sys.file_exists jpath then (None, Some jpath, true)
          else (Some jpath, None, false)
        | _ -> (None, None, false)
      in
      (* streaming: forward watchdog snapshots as [progress] frames
         through the one canonical snapshot → progress mapping.  The
         callback never touches [out]/[err], so the final response
         bytes are identical whether or not anyone is streaming *)
      let on_progress =
        Option.map
          (fun send s -> send (Proto.progress_of_snapshot s))
          progress
      in
      let o =
        Driver.chase_opts ~variant ~budget:grant ~max_atoms:(4 * grant)
          ~timeout ~quiet:req.Proto.quiet ~standard:req.Proto.standard
          ?journal ?resume ~resume_or_start ~cancel ~on_status
          ~resume_log:sink_formatter ?on_progress ()
      in
      finish (Driver.chase o ~file ~src ~out ~err))
  | Proto.Query -> (
    match variant_of req ~default:Variant.Oblivious with
    | Error msg ->
      Fmt.pf err "%s@." msg;
      finish 1
    | Ok variant ->
      let o =
        Driver.chase_opts ~variant ~budget:grant ~max_atoms:(4 * grant)
          ~timeout ~cancel ~on_status ()
      in
      let q = Option.value ~default:"" req.Proto.query in
      finish (Driver.query o ~query:q ~file ~src ~out ~err))
  | Proto.Lint ->
    let o = Driver.lint_opts ~budget:grant ~standard:req.Proto.standard () in
    finish (Driver.lint_one o ~file ~src ~out ~err)
  | Proto.Ping | Proto.Stats | Proto.Telemetry | Proto.Shutdown
  | Proto.Promote ->
    (* handled inline by the connection thread *)
    finish 0

(* ------------------------------------------------------------------ *)
(* The work path: cache → admission → pool → driver                    *)
(* ------------------------------------------------------------------ *)

let default_budget = function
  | Proto.Decide -> 50_000
  | Proto.Lint -> Chase_termination.Guarded.default_budget
  | _ -> 100_000

(* The worker-side job.  [reply] abstracts over "a connection" vs "boot
   recovery" (which has nobody to answer).  [parent] is the request's
   server span, when traced, and [queued_us] its admission-queue entry
   time. *)
let run_job t req ~key ?parent ~queued_us ~progress ~reply () =
  let t0 = Unix.gettimeofday () in
  Tracectx.span t.shard ?parent ~since:queued_us "admission.queue" ignore;
  let timeout_s =
    Option.value ~default:t.cfg.default_timeout req.Proto.timeout_s
  in
  let deadline = t0 +. timeout_s in
  let want = Option.value ~default:(default_budget req.Proto.op) req.Proto.budget in
  gauge_depth t;
  let acquire_us = Tracectx.now_us () in
  match Pool.acquire t.pool ~want ~deadline () with
  | None ->
    (* budget starvation is overload too: shed late, but honestly *)
    Cache.abort t.cache key;
    with_obs t (fun obs -> Obs.incr obs ~label:"pool" "svc.shed");
    Flight.instant "shed"
      ~args:[ ("source", Jsonv.String "pool"); ("key", Jsonv.String key) ];
    flight_dump_limited t ~reason:"pool-shed";
    reply (Proto.Overloaded (Admission.ewma_service_s t.adm))
  | Some grant ->
    Tracectx.span t.shard ?parent ~since:acquire_us
      ~args:(fun () -> [ ("grant", Jsonv.Int grant) ])
      "pool.acquire" ignore;
    let cancel = Limits.Cancel.create () in
    locked t (fun () -> t.tokens <- cancel :: t.tokens);
    Fun.protect
      ~finally:(fun () ->
        Pool.release t.pool grant;
        locked t (fun () ->
            t.tokens <- List.filter (fun c -> c != cancel) t.tokens))
      (fun () ->
        let timeout = Float.max 0.01 (deadline -. Unix.gettimeofday ()) in
        let result, retain =
          Tracectx.span t.shard ?parent
            ~args:(fun (result, _) ->
              [
                ("op", Jsonv.String (Proto.op_to_string req.Proto.op));
                ("exit", Jsonv.Int result.Proto.exit_code);
              ])
            "engine.run"
            (fun () -> execute t req ~grant ~timeout ~cancel ~progress)
        in
        if t.killed then
          (* simulated crash: the process is "dead" — nothing visible
             may happen after this point *)
          Cache.abort t.cache key
        else begin
          (match (req.Proto.durable, t.spool) with
          | true, Some spool ->
            let bytes =
              Proto.encode_response ~id:"-" (Proto.Ok_response result)
            in
            Tracectx.span t.shard ?parent
              ~args:(fun () -> [ ("kind", Jsonv.String "resp") ])
              "spool.fsync"
              (fun () -> Spool.put_response spool ~key bytes);
            let trace = Option.map Tracectx.to_string parent in
            Option.iter (fun f -> f `Resp ~key ~trace bytes) t.cfg.on_durable
          | _ -> ());
          Cache.publish t.cache key (Some result) ~retain;
          with_obs t (fun obs ->
              let label = Proto.op_to_string req.Proto.op in
              Obs.observe obs ~label "svc.latency_s"
                (Unix.gettimeofday () -. t0);
              Obs.incr obs ~label "svc.done");
          reply (Proto.Ok_response result)
        end)

(* The connection-side (or recovery-side) entry: spool-served, cache
   hit, joined flight, or leadership + admission.  [recovered] marks a
   request boot recovery just read from the spool: it is durable
   already, so it is neither written nor shipped again, and the boot
   does not wait on a standby's ack for it. *)
let handle_work ?progress ?parent ?(recovered = false) t req ~reply =
  let key = Proto.request_key req in
  let spooled =
    match (req.Proto.durable, t.spool) with
    | true, Some spool -> (
      match Spool.get_response spool ~key with
      | Some bytes -> (
        match Proto.decode_response bytes with
        | Ok (_, Proto.Ok_response r) -> Some { r with Proto.cached = true }
        | _ -> None (* unreadable .resp: recompute *))
      | None -> None)
    | _ -> None
  in
  match spooled with
  | Some r ->
    locked t (fun () -> t.cache_hits <- t.cache_hits + 1);
    with_obs t (fun obs -> Obs.incr obs ~label:"spool" "svc.cache_hit");
    Tracectx.instant t.shard ?parent
      ~args:[ ("source", Jsonv.String "spool") ]
      "cache.hit";
    reply (Proto.Ok_response r)
  | None -> (
    match Cache.take t.cache key with
    | Cache.Hit r ->
      locked t (fun () -> t.cache_hits <- t.cache_hits + 1);
      with_obs t (fun obs -> Obs.incr obs ~label:"mem" "svc.cache_hit");
      Tracectx.instant t.shard ?parent
        ~args:[ ("source", Jsonv.String "mem") ]
        "cache.hit";
      reply (Proto.Ok_response r)
    | Cache.Lead -> (
      (* acknowledge durable requests before admission: from here on a
         kill cannot lose the request, only delay it *)
      (match (req.Proto.durable, t.spool) with
      | true, Some spool when not recovered ->
        let bytes = Proto.encode_request req in
        Tracectx.span t.shard ?parent
          ~args:(fun () -> [ ("kind", Jsonv.String "req") ])
          "spool.fsync"
          (fun () -> Spool.put_request spool ~key bytes);
        let trace = Option.map Tracectx.to_string parent in
        Option.iter (fun f -> f `Req ~key ~trace bytes) t.cfg.on_durable
      | _ -> ());
      let queued_us = Tracectx.now_us () in
      let run = run_job t req ~key ?parent ~queued_us ~progress ~reply in
      let abandon () =
        Cache.abort t.cache key;
        reply (Proto.Server_error "server shutting down")
      in
      match Admission.submit t.adm ~run ~abandon with
      | `Accepted -> gauge_depth t
      | `Shed retry_after ->
        Cache.abort t.cache key;
        with_obs t (fun obs -> Obs.incr obs ~label:"queue" "svc.shed");
        Flight.instant "shed"
          ~args:[ ("source", Jsonv.String "queue"); ("key", Jsonv.String key) ];
        flight_dump_limited t ~reason:"queue-shed";
        Tracectx.instant t.shard ?parent "shed";
        reply (Proto.Overloaded retry_after)))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let stats t =
  let accepts, responses, bad_frames, cache_hits, recovered =
    locked t (fun () ->
        (t.accepts, t.responses, t.bad_frames, t.cache_hits, t.recovered))
  in
  [
    ("accepts", accepts);
    ("bad_frames", bad_frames);
    ("cache_hits", cache_hits);
    ("cache_retained", Cache.retained t.cache);
    ("completed", Admission.completed t.adm);
    ("pool_available", Pool.available t.pool);
    ("queue_busy", Admission.busy t.adm);
    ("queue_depth", Admission.depth t.adm);
    ("recovered", recovered);
    ("responses", responses);
    ("shed", Admission.shed_count t.adm);
  ]

let stats_json t =
  let module Jsonv = Chase_obs.Jsonv in
  Jsonv.to_string
    (Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Int v)) (stats t)))

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let ok_result stdout =
  Proto.Ok_response
    { Proto.exit_code = 0; stdout; stderr = ""; cached = false }

(* ------------------------------------------------------------------ *)
(* Identity: ping and telemetry                                        *)
(* ------------------------------------------------------------------ *)

let uptime_s t = Unix.gettimeofday () -. t.started

(* Ping answers with the server's identity — build, uptime, paths —
   not a bare ack: one round trip tells an operator who they reached. *)
let ping_body t =
  let module Jsonv = Chase_obs.Jsonv in
  Jsonv.to_string
    (Jsonv.Obj
       ([
          ("pong", Jsonv.Bool true);
          ("role", Jsonv.String "primary");
          ("build", Jsonv.String Telemetry.build_id);
          ("uptime_s", Jsonv.Float (uptime_s t));
          ("pid", Jsonv.Int (Unix.getpid ()));
          ("socket", Jsonv.String t.cfg.socket);
        ]
       @
       match t.spool with
       | Some spool -> [ ("spool", Jsonv.String (Spool.dir spool)) ]
       | None -> []))

let telemetry_extra t =
  let module Jsonv = Chase_obs.Jsonv in
  [
    ("role", Jsonv.String "primary");
    ("socket", Jsonv.String t.cfg.socket);
  ]
  @
  match t.spool with
  | Some spool -> [ ("spool", Jsonv.String (Spool.dir spool)) ]
  | None -> []

(* A registry snapshot, JSON or Prometheus exposition by [variant].
   Rendering holds the obs lock for the microseconds it takes to walk
   the registry — read-only, no I/O, workers never wait on a client. *)
let telemetry_body t req =
  let extra = telemetry_extra t in
  let uptime_s = uptime_s t in
  with_obs t (fun obs ->
      let m = Obs.metrics obs in
      match req.Proto.variant with
      | Some "prom" -> Telemetry.prometheus ~extra ~uptime_s m
      | _ -> Telemetry.json ~extra ~uptime_s m ^ "\n")

(* [Unix.close] does not wake a thread blocked in [read] on the same
   fd; [shutdown] does (the reader sees EOF).  Always shutdown first.
   Guarded by the write mutex + [alive] so the fd is closed exactly
   once — a double [close] could hit an unrelated, reused fd. *)
let close_conn conn =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive then begin
        conn.alive <- false;
        (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
         with Unix.Unix_error _ -> ());
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let do_stop t ~hard =
  let first = locked t (fun () ->
      if t.stopping then false else (t.stopping <- true; true))
  in
  if first then begin
    if hard then begin
      t.killed <- true;
      locked t (fun () ->
          List.iter (fun c -> Limits.Cancel.cancel ~reason:"killed" c) t.tokens)
    end;
    (* Stop accepting.  Neither [close] nor [shutdown] wakes a thread
       blocked in [accept] on an AF_UNIX listener; a throwaway
       connection does — the loop sees [stopping] and exits. *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket)
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    if hard then begin
      (* simulated SIGKILL: every fd dies now; workers' cancelled runs
         unwind without writing anything visible *)
      List.iter close_conn (locked t (fun () -> t.conns));
      Cache.close t.cache;
      Pool.close t.pool;
      Admission.stop ~drain:false t.adm
    end
    else begin
      Admission.stop ~drain:true t.adm;
      List.iter close_conn (locked t (fun () -> t.conns));
      Cache.close t.cache;
      Pool.close t.pool
    end;
    let threads = locked t (fun () -> t.conn_threads) in
    List.iter Thread.join threads;
    if not hard then begin
      (* final metric summaries — the artifact obs_check validates *)
      with_obs t (fun _ -> t.obs_close ());
      Option.iter Tracectx.Shard.close t.shard
    end;
    (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ());
    locked t (fun () ->
        t.finished <- true;
        Condition.broadcast t.cond)
  end

let stop ?(graceful = true) t = do_stop t ~hard:(not graceful)
let kill t = do_stop t ~hard:true
let graceful_stop t = do_stop t ~hard:false

let rec handle_conn t conn =
  let bad msg =
    locked t (fun () -> t.bad_frames <- t.bad_frames + 1);
    with_obs t (fun obs -> Obs.incr obs "svc.bad_frame");
    respond t conn ~id:"0" (Proto.Bad_frame msg);
    close_conn conn
  in
  let rec loop () =
    if not conn.alive || t.stopping then ()
    else
      match Proto.read_frame ~max_len:t.cfg.max_frame conn.fd with
      | exception Unix.Unix_error _ -> conn.alive <- false
      | `Closed -> close_conn conn
      | `Bad msg -> bad msg
      | `Frame payload -> (
        match Proto.decode_request payload with
        | Error msg ->
          respond t conn ~id:"0" (Proto.Bad_request msg);
          loop ()
        | Ok req -> (
          with_obs t (fun obs ->
              Obs.incr obs ~label:(Proto.op_to_string req.Proto.op)
                "svc.requests");
          Flight.instant "request"
            ~args:
              [
                ("op", Jsonv.String (Proto.op_to_string req.Proto.op));
                ("id", Jsonv.String req.Proto.id);
              ];
          let reply resp =
            respond t conn ~id:req.Proto.id ?trace:req.Proto.trace resp
          in
          match req.Proto.op with
          | Proto.Ping ->
            reply (ok_result (ping_body t ^ "\n"));
            loop ()
          | Proto.Stats ->
            reply (ok_result (stats_json t ^ "\n"));
            loop ()
          | Proto.Telemetry ->
            reply (ok_result (telemetry_body t req));
            loop ()
          | Proto.Shutdown ->
            reply (ok_result "bye\n");
            (* stop from a fresh thread: stop joins this thread *)
            ignore (Thread.create (fun () -> graceful_stop t) ());
            ()
          | Proto.Promote ->
            (* a serving primary is already what a promotion asks for;
               real promotions are handled by the standby's stub loop *)
            reply (ok_result "already-primary\n");
            loop ()
          | Proto.Decide | Proto.Chase | Proto.Lint | Proto.Query ->
            (* streaming: only a leading chase emits progress frames —
               cache hits, joined flights and spool-served responses
               answer with the final frame alone *)
            let root = trace_root t req in
            let parent = Option.map Tracectx.child root in
            let arrival_us = Tracectx.now_us () in
            let reply resp =
              (* the server span closes with the final frame; progress
                 frames ride inside it *)
              (match resp with
              | Proto.Progress _ -> ()
              | _ ->
                Tracectx.span t.shard ?parent:root ?ctx:parent
                  ~since:arrival_us
                  ~args:(fun () ->
                    [ ("status", Jsonv.String (status_of_response resp)) ])
                  ("server." ^ Proto.op_to_string req.Proto.op)
                  ignore);
              reply resp
            in
            let progress =
              if req.Proto.stream && req.Proto.op = Proto.Chase then
                Some (fun p -> reply (Proto.Progress p))
              else None
            in
            handle_work ?progress ?parent t req ~reply;
            loop ()))
  in
  loop ()

and accept_loop t =
  let kill_after =
    List.find_map
      (function Faults.Kill_accept_after n -> Some n | _ -> None)
      t.cfg.faults
  in
  let rec loop () =
    if t.stopping then ()
    else
      match Unix.accept t.listener with
      | exception Unix.Unix_error _ -> () (* listener closed: stop *)
      | fd, _ when t.stopping ->
        (* the wake-up connection from [do_stop] *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ ->
        let n = locked t (fun () -> t.accepts <- t.accepts + 1; t.accepts) in
        with_obs t (fun obs -> Obs.incr obs "svc.accepts");
        if kill_after = Some n then begin
          (* chaos: the accept loop dies.  Existing connections live
             on; new clients get connection errors and must retry
             against the restarted server. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (try Unix.close t.listener with Unix.Unix_error _ -> ())
        end
        else begin
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.read_timeout;
             (* bound writes too: a peer that stops reading must not
                wedge a responder holding the connection's write lock *)
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.read_timeout
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let conn = { fd; wmu = Mutex.create (); alive = true } in
          let th = Thread.create (fun () -> handle_conn t conn) () in
          locked t (fun () ->
              t.conns <- conn :: t.conns;
              t.conn_threads <- th :: t.conn_threads);
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Startup and boot recovery                                           *)
(* ------------------------------------------------------------------ *)

let recover_pending t =
  match t.spool with
  | None -> ()
  | Some spool ->
    List.iter
      (fun key ->
        match Option.map Proto.decode_request (Spool.get_request spool ~key) with
        | Some (Ok req) ->
          locked t (fun () -> t.recovered <- t.recovered + 1);
          with_obs t (fun obs -> Obs.incr obs "svc.recovered");
          Flight.instant "recovery" ~args:[ ("key", Jsonv.String key) ];
          (* Re-run through the normal work path (nobody to answer);
             the journal written before the kill is resumed.  An
             acknowledged request must not be dropped by its own
             server's admission queue: retry a synchronous shed. *)
          let rec attempt n =
            let shed = ref false in
            handle_work ~recovered:true t req ~reply:(function
              | Proto.Overloaded _ -> shed := true
              | _ -> ());
            if !shed && n < 100 then begin
              Thread.delay 0.02;
              attempt (n + 1)
            end
          in
          attempt 0
        | Some (Error _) | None -> ())
      (Spool.pending spool)

let start cfg =
  (* a dead peer must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listener 64;
  (* [force]d live even with no metrics file: the telemetry op snapshots
     this registry, so it must always be recording *)
  (match cfg.flight with
  | Some _ as path -> Flight.configure ~path
  | None -> ());
  let obs, obs_close =
    match Obs.files ?metrics:cfg.metrics ~force:true () with
    | Ok pair -> pair
    | Error _ -> (Obs.disabled, ignore)
  in
  let shard =
    Option.map
      (fun path ->
        (* the [check] hook routes the shard through the write-fault
           registry: arming the path makes every append fail, and the
           writer must degrade to counting drops, never blocking *)
        Tracectx.Shard.open_ ~proc:"chased"
          ~check:(fun () -> Faults.Writes.armed_for path <> [])
          path)
      cfg.trace_shard
  in
  let t =
    {
      cfg;
      listener;
      pool =
        Pool.create ~per_request_cap:cfg.per_request_cap
          ~min_grant:cfg.min_grant ~total:cfg.pool_total ();
      cache = Cache.create ~capacity:cfg.cache_capacity ();
      adm = Admission.create ~queue_cap:cfg.queue_cap ~workers:cfg.workers ();
      spool = Option.map (fun dir -> Spool.create ~dir) cfg.spool_dir;
      obs;
      obs_close;
      obs_mu = Mutex.create ();
      started = Unix.gettimeofday ();
      shard;
      last_flight_dump = 0.;
      mu = Mutex.create ();
      conns = [];
      conn_threads = [];
      accept_thread = None;
      tokens = [];
      accepts = 0;
      responses = 0;
      bad_frames = 0;
      cache_hits = 0;
      recovered = 0;
      killed = false;
      stopping = false;
      cond = Condition.create ();
      finished = false;
    }
  in
  recover_pending t;
  (* a boot that replayed anything was a crash recovery: dump the ring
     as the post-mortem of whatever killed the previous life *)
  if locked t (fun () -> t.recovered) > 0 then
    Flight.dump ~reason:"crash-recovery-boot";
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  Mutex.lock t.mu;
  while not t.finished do
    Condition.wait t.cond t.mu
  done;
  Mutex.unlock t.mu

let socket t = t.cfg.socket
let is_stopping t = t.stopping

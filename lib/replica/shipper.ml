(** The primary side of replication: watches the durable spool and
    streams it to a standby over a Unix-domain socket, as {!Shipframe}
    messages inside {!Chase_service.Proto} frames.

    Two sources feed the ship queue.  The {e hook} path is synchronous
    with the request plane: the server's [on_durable] callback hands
    over every spool file the moment its local fsync completes, and —
    in semi-synchronous mode — blocks the acknowledgement until the
    standby has confirmed that very frame or [sync_timeout] elapses,
    whichever is first.  The {e tailer} path is a polling thread that
    picks up what the hook cannot see: journal appends (the engine
    writes them deep below the server), snapshot publications, journal
    compactions, and spool removals.

    The queue is bounded.  A standby slow enough to back it up does not
    stall the primary: the queue is dropped wholesale, the [lagging]
    degradation is recorded, and the next (re)connect ships the
    complete durable state from scratch — which is also what every
    ordinary reconnect does, so slow standbys exercise no special
    machinery.  Sessions restart their sequence numbers at 1 and the
    receiver applies idempotently; a cumulative ack maps back to the
    shipper's global frame counter to wake semi-sync waiters.

    Chaos: {!Chase_engine.Faults.replica_fault}s act on the real
    stream — the connection is really cut, the frame really duplicated
    or corrupted, the send really delayed.  Each fault fires once,
    counted by frames sent over the shipper's lifetime. *)

module Proto = Chase_service.Proto
module Journal = Chase_persist.Journal
module Faults = Chase_engine.Faults
module Obs = Chase_obs.Obs
module Tracectx = Chase_obs.Tracectx

type config = {
  spool_dir : string;  (** the primary's spool — the state to ship *)
  ship_socket : string;  (** the standby receiver's socket *)
  sync_timeout : float;
      (** how long [on_durable] waits for the standby's ack before
          degrading to asynchronous shipping; 0 never waits *)
  buffer_cap : int;  (** queued frames before degrade-and-resync *)
  poll_interval : float;  (** journal tailer cadence, seconds *)
  connect_retry : float;  (** pause between standby connect attempts *)
  faults : Faults.replica_fault list;
}

let config ?(sync_timeout = 0.25) ?(buffer_cap = 256) ?(poll_interval = 0.05)
    ?(connect_retry = 0.1) ?(faults = []) ~spool_dir ~ship_socket () =
  {
    spool_dir;
    ship_socket;
    sync_timeout;
    buffer_cap;
    poll_interval;
    connect_retry;
    faults;
  }

type pending = {
  g : int;  (** global enqueue number, monotone across sessions *)
  kind : Shipframe.kind;
  name : string;
  data : string;
  trace : string option;  (** request trace ctx, hook path only *)
}

type t = {
  cfg : config;
  obs : Obs.t;
  obs_mu : Mutex.t;
  shard : Tracectx.Shard.writer option;  (** this process's trace shard *)
  mu : Mutex.t;
  cond : Condition.t;
  queue : pending Queue.t;
  mutable total : int;  (** global enqueue counter *)
  mutable synced : int;  (** highest global number the standby acked *)
  mutable sessions : int;
  mutable laggings : int;  (** semi-sync waits that timed out *)
  mutable overflows : int;  (** queue drops forcing a resync *)
  mutable sent : int;  (** ship frames sent ever (fault counting) *)
  mutable degraded : bool;  (** currently behind (async) *)
  mutable stop : bool;
  mutable conn : Unix.file_descr option;  (** live shipping connection *)
  mutable unfired : Faults.replica_fault list;
  jnl_off : (string, int) Hashtbl.t;  (** journal name -> shipped offset *)
  file_sig : (string, Digest.t) Hashtbl.t;  (** file name -> shipped MD5 *)
  mutable sender : Thread.t option;
  mutable tailer : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let with_obs t f =
  Mutex.lock t.obs_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mu) (fun () -> f t.obs)

(* ------------------------------------------------------------------ *)
(* Enqueueing                                                          *)
(* ------------------------------------------------------------------ *)

(* Must hold [t.mu].  A full queue means the standby is not keeping up:
   drop everything, record the degradation, and let the next session
   re-ship the full state — never stall the caller. *)
let enqueue_locked ?trace t kind name data =
  if Queue.length t.queue >= t.cfg.buffer_cap then begin
    Queue.clear t.queue;
    Hashtbl.reset t.jnl_off;
    Hashtbl.reset t.file_sig;
    t.overflows <- t.overflows + 1;
    t.degraded <- true;
    (* poison the live session: the sender drops the connection and
       reconnects, and reconnecting ships everything from scratch *)
    match t.conn with
    | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ()
  end;
  t.total <- t.total + 1;
  Queue.add { g = t.total; kind; name; data; trace } t.queue;
  Condition.broadcast t.cond;
  t.total

let enqueue ?trace t kind name data =
  let g = locked t (fun () -> enqueue_locked ?trace t kind name data) in
  (match kind with
  | Shipframe.File ->
    with_obs t (fun obs -> Obs.incr obs ~label:"file" "repl.shipped")
  | Shipframe.Journal _ ->
    with_obs t (fun obs -> Obs.incr obs ~label:"jnl" "repl.shipped")
  | Shipframe.Delete ->
    with_obs t (fun obs -> Obs.incr obs ~label:"del" "repl.shipped"));
  g

(* ------------------------------------------------------------------ *)
(* The semi-synchronous hook                                           *)
(* ------------------------------------------------------------------ *)

(* Wired as the server's [on_durable]: ship the bytes, then wait for
   the standby to confirm — bounded by [sync_timeout], after which the
   primary answers its client anyway and the stream is (temporarily)
   asynchronous.  The wait is on the global counter, not the session
   seq: if the session restarts meanwhile, the resync re-ships this
   very file, and the resync's acks advance the same counter. *)
let on_durable t what ~key ~trace bytes =
  let suffix = match what with `Req -> ".req" | `Resp -> ".resp" in
  let name = key ^ suffix in
  let ts_us = Tracectx.now_us () in
  Hashtbl.replace t.file_sig name (Digest.string bytes);
  let g = enqueue ?trace t Shipframe.File name bytes in
  let timed_out =
    if t.cfg.sync_timeout <= 0. then false
    else begin
      let deadline = Unix.gettimeofday () +. t.cfg.sync_timeout in
      let timed_out =
        locked t (fun () ->
            let rec wait () =
              if t.synced >= g || t.stop then false
              else begin
                let remaining = deadline -. Unix.gettimeofday () in
                if remaining <= 0. then true
                else begin
                  (* no timed wait on [Condition]: poll on a short leash *)
                  Mutex.unlock t.mu;
                  Thread.delay (Float.min 0.005 remaining);
                  Mutex.lock t.mu;
                  wait ()
                end
              end
            in
            wait ())
      in
      if timed_out then begin
        locked t (fun () -> t.laggings <- t.laggings + 1; t.degraded <- true);
        with_obs t (fun obs -> Obs.incr obs "repl.lagging")
      end;
      timed_out
    end
  in
  (* the semi-sync wait, as a span under the request's server span:
     its duration is the ship→ack latency the client actually paid *)
  Tracectx.span t.shard
    ?parent:(Option.bind trace Tracectx.of_string)
    ~since:ts_us
    ~args:(fun () ->
      [
        ("name", Chase_obs.Jsonv.String name);
        ("lagging", Chase_obs.Jsonv.Bool timed_out);
      ])
    "shipper.sync" ignore

(* ------------------------------------------------------------------ *)
(* Scanning the spool                                                  *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

let is_journal name = Filename.check_suffix name ".jnl"

let spool_files t =
  match Sys.readdir t.cfg.spool_dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Shipframe.valid_name n)
    |> List.filter (fun n -> not (Filename.check_suffix n ".tmp"))
    |> List.sort String.compare

(* Full resync: forget all shipping state and enqueue the complete
   durable spool.  Runs under [t.mu] (via caller) — the queue was just
   cleared, so the bound cannot trip mid-scan.  Journals ship their
   valid frame prefix from offset 0 (magic and header included: the
   standby's copy is a byte-identical prefix of the primary's). *)
let resync t =
  locked t (fun () ->
      Queue.clear t.queue;
      Hashtbl.reset t.jnl_off;
      Hashtbl.reset t.file_sig);
  List.iter
    (fun name ->
      let path = Filename.concat t.cfg.spool_dir name in
      if is_journal name then (
        match Journal.tail path ~offset:0 with
        | Ok (bytes, stop) when bytes <> "" ->
          Hashtbl.replace t.jnl_off name stop;
          ignore (enqueue t (Shipframe.Journal 0) name bytes)
        | Ok _ | Error _ -> () (* headerless or mid-create: tail later *))
      else
        match read_file path with
        | Some data ->
          Hashtbl.replace t.file_sig name (Digest.string data);
          ignore (enqueue t Shipframe.File name data)
        | None -> ())
    (spool_files t)

(* One tailer sweep: pick up journal growth/truncation, changed files
   (snapshots), and removals the hook path never sees. *)
let sweep t =
  let seen = spool_files t in
  List.iter
    (fun name ->
      let path = Filename.concat t.cfg.spool_dir name in
      if is_journal name then begin
        let off =
          Option.value ~default:0 (locked t (fun () -> Hashtbl.find_opt t.jnl_off name))
        in
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        if size < off then (
          (* compaction rewrote the journal: start over *)
          match Journal.tail path ~offset:0 with
          | Ok (bytes, stop) when bytes <> "" ->
            Hashtbl.replace t.jnl_off name stop;
            ignore (enqueue t (Shipframe.Journal 0) name bytes)
          | Ok _ | Error _ -> Hashtbl.remove t.jnl_off name)
        else if size > off then (
          match Journal.tail path ~offset:off with
          | Ok (bytes, stop) when bytes <> "" ->
            Hashtbl.replace t.jnl_off name stop;
            ignore (enqueue t (Shipframe.Journal off) name bytes)
          | Ok _ -> () (* grew, but no complete new frame yet *)
          | Error _ ->
            (* offset no longer a frame boundary: rewritten under us *)
            Hashtbl.remove t.jnl_off name)
      end
      else
        match read_file path with
        | Some data ->
          let d = Digest.string data in
          let changed =
            locked t (fun () ->
                match Hashtbl.find_opt t.file_sig name with
                | Some d' when d' = d -> false
                | _ -> Hashtbl.replace t.file_sig name d; true)
          in
          if changed then ignore (enqueue t Shipframe.File name data)
        | None -> ())
    seen;
  (* removals: tracked names that vanished from the spool *)
  let gone tracked =
    locked t (fun () ->
        Hashtbl.fold (fun name _ acc -> if List.mem name seen then acc else name :: acc)
          tracked [])
  in
  List.iter
    (fun name ->
      Hashtbl.remove t.file_sig name;
      Hashtbl.remove t.jnl_off name;
      ignore (enqueue t Shipframe.Delete name ""))
    (gone t.file_sig @ gone t.jnl_off)

let tailer_loop t =
  while not t.stop do
    (try sweep t with _ -> ());
    Thread.delay t.cfg.poll_interval
  done

(* ------------------------------------------------------------------ *)
(* The sender: connect, resync, drain, with chaos applied              *)
(* ------------------------------------------------------------------ *)

let take_fault t pred =
  locked t (fun () ->
      let rec split acc = function
        | [] -> None
        | f :: rest when pred f ->
          t.unfired <- List.rev_append acc rest;
          Some f
        | f :: rest -> split (f :: acc) rest
      in
      split [] t.unfired)

(* Send one encoded ship frame with any armed fault applied.  Returns
   [false] when the connection must be considered dead. *)
let send_frame t fd payload =
  let k = locked t (fun () -> t.sent <- t.sent + 1; t.sent) in
  (match take_fault t (function Faults.Delay_ship (k', _) -> k' = k | _ -> false) with
  | Some (Faults.Delay_ship (_, s)) -> Thread.delay s
  | _ -> ());
  let payload =
    match
      take_fault t (function Faults.Corrupt_ship k' -> k' = k | _ -> false)
    with
    | Some (Faults.Corrupt_ship _) -> (
      (* flip one hex digit of the payload, leaving the declared CRC
         intact: the receiver's decode must catch it *)
      let marker = "\"data\":\"" in
      let rec find i =
        if i + String.length marker > String.length payload then None
        else if String.sub payload i (String.length marker) = marker then
          Some (i + String.length marker)
        else find (i + 1)
      in
      match find 0 with
      | Some i when i < String.length payload && payload.[i] <> '"' ->
        let b = Bytes.of_string payload in
        Bytes.set b i (if payload.[i] = '0' then '1' else '0');
        Bytes.to_string b
      | _ -> payload)
    | _ -> payload
  in
  let dup =
    match take_fault t (function Faults.Dup_ship k' -> k' = k | _ -> false) with
    | Some _ -> 2
    | None -> 1
  in
  let ok =
    try
      for _ = 1 to dup do
        Proto.write_frame fd payload
      done;
      true
    with Unix.Unix_error _ -> false
  in
  match
    take_fault t (function Faults.Cut_ship_after k' -> k' = k | _ -> false)
  with
  | Some _ ->
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    false
  | None -> ok

(* Reader side of one session: cumulative acks advance the global
   sync point through the in-flight (seq -> g) map; a nack poisons the
   session.  Runs in its own thread; exits on EOF/error. *)
let reader_loop t fd inflight dead =
  let rec loop () =
    match Proto.read_frame fd with
    | `Closed | `Bad _ ->
      locked t (fun () -> dead := true; Condition.broadcast t.cond)
    | exception Unix.Unix_error _ ->
      locked t (fun () -> dead := true; Condition.broadcast t.cond)
    | `Frame payload -> (
      match Shipframe.decode payload with
      | Ok (Shipframe.Ack seq) ->
        locked t (fun () ->
            let best = ref t.synced in
            Hashtbl.iter (fun s g -> if s <= seq && g > !best then best := g) inflight;
            t.synced <- !best;
            if t.synced >= t.total then t.degraded <- false;
            Condition.broadcast t.cond);
        loop ()
      | Ok (Shipframe.Nack _) | Ok _ | Error _ ->
        (* anything but an ack restarts the session *)
        locked t (fun () -> dead := true; Condition.broadcast t.cond))
  in
  loop ()

let connect_standby t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX t.cfg.ship_socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let session t fd =
  let session_no = locked t (fun () -> t.sessions <- t.sessions + 1; t.sessions) in
  with_obs t (fun obs -> Obs.incr obs "repl.sessions");
  (* every session begins with the complete durable state *)
  resync t;
  let inflight : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let dead = ref false in
  match
    try Proto.write_frame fd (Shipframe.encode (Shipframe.Hello session_no)); true
    with Unix.Unix_error _ -> false
  with
  | false -> ()
  | true ->
    let reader = Thread.create (fun () -> reader_loop t fd inflight dead) () in
    let seq = ref 0 in
    let rec drain () =
      let next =
        locked t (fun () ->
            let rec wait () =
              if t.stop || !dead then None
              else
                match Queue.take_opt t.queue with
                | Some p -> Some p
                | None ->
                  Condition.wait t.cond t.mu;
                  wait ()
            in
            wait ())
      in
      match next with
      | None -> ()
      | Some p ->
        incr seq;
        Hashtbl.replace inflight !seq p.g;
        let head = !seq + locked t (fun () -> Queue.length t.queue) in
        let frame =
          Shipframe.encode
            (Shipframe.Ship
               { Shipframe.seq = !seq; head; kind = p.kind; name = p.name;
                 data = p.data; trace = p.trace })
        in
        if send_frame t fd frame then drain ()
        else locked t (fun () -> dead := true; Condition.broadcast t.cond)
    in
    drain ();
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Thread.join reader

let sender_loop t =
  while not t.stop do
    match connect_standby t with
    | None -> Thread.delay t.cfg.connect_retry
    | Some fd ->
      locked t (fun () -> t.conn <- Some fd);
      session t fd;
      locked t (fun () -> t.conn <- None);
      if not t.stop then Thread.delay t.cfg.connect_retry
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(obs = Obs.disabled) ?shard cfg =
  let t =
    {
      cfg;
      obs;
      obs_mu = Mutex.create ();
      shard;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      total = 0;
      synced = 0;
      sessions = 0;
      laggings = 0;
      overflows = 0;
      sent = 0;
      degraded = false;
      stop = false;
      conn = None;
      unfired = cfg.faults;
      jnl_off = Hashtbl.create 16;
      file_sig = Hashtbl.create 64;
      sender = None;
      tailer = None;
    }
  in
  t.sender <- Some (Thread.create (fun () -> sender_loop t) ());
  t.tailer <- Some (Thread.create (fun () -> tailer_loop t) ());
  t

let stop t =
  locked t (fun () ->
      t.stop <- true;
      Condition.broadcast t.cond;
      match t.conn with
      | Some fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ());
  Option.iter Thread.join t.sender;
  Option.iter Thread.join t.tailer

(* Best-effort drain for orderly failback: wait until everything
   enqueued so far is acked, or the deadline passes. *)
let quiesce t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    let done_ = locked t (fun () -> t.synced >= t.total && Queue.is_empty t.queue) in
    if done_ then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      wait ()
    end
  in
  wait ()

let stats t =
  locked t (fun () ->
      [
        ("degraded", if t.degraded then 1 else 0);
        ("enqueued", t.total);
        ("laggings", t.laggings);
        ("overflows", t.overflows);
        ("queue", Queue.length t.queue);
        ("sent", t.sent);
        ("sessions", t.sessions);
        ("synced", t.synced);
      ])

(** The standby side of replication: accepts one shipper at a time,
    validates every {!Shipframe} structurally (sequencing, name
    hygiene, CRC over the decoded bytes) and applies it idempotently
    to its own spool directory — whole files are published atomically
    through {!Chase_persist.Fsutil}, journal ranges append only at the
    exact offset the file already has (offset 0 replaces the file).
    Anything out of order, unparseable or corrupt draws a structured
    nack naming the expected sequence number and closes the
    connection; the shipper answers by restarting the session with a
    full resync, so the two sides can never creep apart.

    Duplicated frames (at-least-once retransmits, chaos [Dup_ship])
    are detected by their stale sequence number, re-acked — the
    cumulative ack stays monotone — and not applied again.

    Continuous certification: a background thread re-runs the chase of
    every received journal's shipped [.req] program, capped at the
    journal's length, and checks each step against the journal
    ({!Chase_persist.Recovery.verify}, which writes nothing —
    certification must never mutate shipped state), so the standby
    knows {e before} promotion that its state re-derives.  Stopping the
    receiver cancels a re-run in progress (a cancelled certification
    counts as not certified) and wakes the certifier from its
    [cert_interval] sleep, so a promotion waits on neither.  Promotion
    itself is not this
    module's business: {!Standby} stops the receiver and boots a
    {!Chase_service.Server}, whose ordinary boot recovery resumes every
    acknowledged request: a re-run from step zero, checked against its
    journal and appending only past the journal's end.

    Replication lag: each ship frame carries the shipper's queue head;
    [head - seq] lands in the [repl.lag] histogram of this receiver's
    metrics file — the artifact the failover soak validates. *)

module Proto = Chase_service.Proto
module Fsutil = Chase_persist.Fsutil
module Recovery = Chase_persist.Recovery
module Variant = Chase_engine.Variant
module Limits = Chase_engine.Limits
module Obs = Chase_obs.Obs
module Parser = Chase_logic.Parser
module Tracectx = Chase_obs.Tracectx

type config = {
  spool_dir : string;  (** the standby's spool — the state received *)
  socket : string;  (** where the shipper connects *)
  cert_interval : float;  (** certification cadence; 0 disables *)
  metrics : string option;
  trace_shard : string option;  (** this process's trace-shard JSONL *)
}

let config ?(cert_interval = 0.25) ?metrics ?trace_shard ~spool_dir ~socket () =
  { spool_dir; socket; cert_interval; metrics; trace_shard }

type t = {
  cfg : config;
  listener : Unix.file_descr;
  obs : Obs.t;
  obs_close : unit -> unit;
  obs_mu : Mutex.t;
  shard : Tracectx.Shard.writer option;
  mu : Mutex.t;
  mutable conn : Unix.file_descr option;
  mutable sessions : int;
  mutable applied : int;
  mutable dups : int;
  mutable nacks : int;
  mutable certified : int;  (** journals that certified at least once *)
  mutable cert_fails : int;
  mutable last_error : string option;
  mutable stop : bool;
  cancel : Limits.Cancel.t;  (** cancelled by [stop]: ends a certification *)
  wake_r : Unix.file_descr;  (** readable once [stop] runs: ends the *)
  wake_w : Unix.file_descr;  (** certifier's [cert_interval] sleep *)
  cert_state : (string, int * bool) Hashtbl.t;
      (** journal name -> (size last certified, passed) *)
  mutable accepter : Thread.t option;
  mutable certifier : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let with_obs t f =
  Mutex.lock t.obs_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mu) (fun () -> f t.obs)

(* ------------------------------------------------------------------ *)
(* Applying one validated frame                                        *)
(* ------------------------------------------------------------------ *)

let apply t (s : Shipframe.ship) =
  let path = Filename.concat t.cfg.spool_dir s.Shipframe.name in
  match s.Shipframe.kind with
  | Shipframe.File ->
    Fsutil.write_atomic path s.Shipframe.data;
    Ok ()
  | Shipframe.Delete ->
    (try Sys.remove path with Sys_error _ -> ());
    Fsutil.fsync_dir t.cfg.spool_dir;
    Ok ()
  | Shipframe.Journal 0 ->
    (* replace: a resync or a post-compaction reset *)
    Fsutil.write_atomic path s.Shipframe.data;
    Ok ()
  | Shipframe.Journal off -> (
    let size =
      try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1
    in
    if size <> off then
      Error (Fmt.str "journal %s is %d bytes, frame expects %d"
               s.Shipframe.name size off)
    else
      match
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
      with
      | exception Unix.Unix_error (e, _, _) ->
        Error (Fmt.str "cannot append to %s: %s" s.Shipframe.name
                 (Unix.error_message e))
      | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let b = Bytes.of_string s.Shipframe.data in
            let n = Bytes.length b in
            let pos = ref 0 in
            while !pos < n do
              pos := !pos + Unix.write fd b !pos (n - !pos)
            done;
            (try Unix.fsync fd with Unix.Unix_error _ -> ());
            Ok ()))

(* ------------------------------------------------------------------ *)
(* One shipping session                                                *)
(* ------------------------------------------------------------------ *)

let send fd msg =
  try Proto.write_frame fd (Shipframe.encode msg); true
  with Unix.Unix_error _ -> false

let serve_conn t fd =
  let expected = ref 1 in
  let nack why =
    locked t (fun () ->
        t.nacks <- t.nacks + 1;
        t.last_error <- Some why);
    with_obs t (fun obs -> Obs.incr obs "repl.nacks");
    ignore (send fd (Shipframe.Nack (!expected, why)))
  in
  let rec loop () =
    if t.stop then ()
    else
      match Proto.read_frame fd with
      | exception Unix.Unix_error _ -> ()
      | `Closed -> ()
      | `Bad _ -> () (* transport desync: drop; shipper reconnects *)
      | `Frame payload -> (
        match Shipframe.decode payload with
        | Error why ->
          (* structural reject — bad CRC lands here — and the nack is
             the re-request: the shipper restarts with a full resync *)
          nack why
        | Ok (Shipframe.Hello n) ->
          locked t (fun () -> t.sessions <- t.sessions + 1);
          with_obs t (fun obs ->
              Obs.incr obs "repl.sessions";
              Obs.set_gauge obs "repl.session" (float_of_int n));
          expected := 1;
          loop ()
        | Ok (Shipframe.Ack _) | Ok (Shipframe.Nack _) ->
          nack "unexpected ack/nack from shipper"
        | Ok (Shipframe.Ship s) ->
          if s.Shipframe.seq < !expected then begin
            (* duplicate delivery: already applied; keep the
               cumulative ack monotone and move on *)
            locked t (fun () -> t.dups <- t.dups + 1);
            with_obs t (fun obs -> Obs.incr obs "repl.dups");
            if send fd (Shipframe.Ack (!expected - 1)) then loop ()
          end
          else if s.Shipframe.seq > !expected then
            nack
              (Fmt.str "sequence gap: got %d, expected %d" s.Shipframe.seq
                 !expected)
          else (
            let ts_us = Tracectx.now_us () in
            match apply t s with
            | Error why -> nack why
            | Ok () ->
              incr expected;
              locked t (fun () -> t.applied <- t.applied + 1);
              with_obs t (fun obs ->
                  Obs.incr obs "repl.applied";
                  Obs.observe obs "repl.lag"
                    (float_of_int (max 0 (s.Shipframe.head - s.Shipframe.seq))));
              (* a traced frame: the apply becomes a span of the
                 request's own trace, parented on the primary's ctx *)
              Tracectx.span t.shard
                ?parent:(Option.bind s.Shipframe.trace Tracectx.of_string)
                ~since:ts_us
                ~args:(fun () ->
                  [
                    ("name", Chase_obs.Jsonv.String s.Shipframe.name);
                    ( "lag",
                      Chase_obs.Jsonv.Int
                        (max 0 (s.Shipframe.head - s.Shipframe.seq)) );
                  ])
                "receiver.apply" ignore;
              if send fd (Shipframe.Ack s.Shipframe.seq) then loop ()))
  in
  loop ()

let accept_loop t =
  let rec loop () =
    if t.stop then ()
    else
      match Unix.accept t.listener with
      | exception Unix.Unix_error _ -> () (* listener closed: stop *)
      | fd, _ when t.stop ->
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ ->
        locked t (fun () -> t.conn <- Some fd);
        (try serve_conn t fd with _ -> ());
        locked t (fun () -> t.conn <- None);
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Continuous certification                                            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* Re-run the chase of the journal's own shipped [.req], capped at the
   journal's length, and check every step against it: the check a
   resume runs, minus any repair — the standby must never mutate what
   the primary shipped. *)
let certify_one ?cancel ~spool_dir name =
  let jnl = Filename.concat spool_dir name in
  let key = Filename.chop_suffix name ".jnl" in
  let req_path = Filename.concat spool_dir (key ^ ".req") in
  match read_file req_path with
  | None -> None (* request not shipped yet: certify later *)
  | Some bytes -> (
    match Proto.decode_request bytes with
    | Error why -> Some (Error (Fmt.str "unreadable .req: %s" why))
    | Ok req -> (
      let variant =
        match Option.bind req.Proto.variant Variant.of_string with
        | Some v -> v
        | None -> Variant.Oblivious
      in
      match Parser.parse_program req.Proto.program with
      | Error why -> Some (Error (Fmt.str "unparseable program: %s" why))
      | Ok (rules, db) ->
        let snapshot =
          let s = jnl ^ ".snap" in
          if Sys.file_exists s then Some s else None
        in
        Some
          (Result.bind
             (Recovery.recover ?cancel ?snapshot ~journal:jnl ~variant ~rules ~db ())
             (fun report ->
               Result.map
                 (fun () -> List.length report.Recovery.history)
                 (Recovery.verify ?cancel ~variant ~rules ~db report)))))

let certify_sweep t =
  match Sys.readdir t.cfg.spool_dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        (* a certification is a chase re-run: once the receiver is
           stopping (promotion waits on this thread), start no more *)
        if (not t.stop) && Filename.check_suffix name ".jnl" then begin
          let size =
            try (Unix.stat (Filename.concat t.cfg.spool_dir name)).Unix.st_size
            with Unix.Unix_error _ -> -1
          in
          let due =
            size >= 0
            && locked t (fun () ->
                   match Hashtbl.find_opt t.cert_state name with
                   | Some (s, _) when s = size -> false
                   | _ -> true)
          in
          if due then
            match certify_one ~cancel:t.cancel ~spool_dir:t.cfg.spool_dir name with
            | None -> ()
            | Some (Error _) when Limits.Cancel.is_cancelled t.cancel ->
              (* cut short by [stop]: neither certified nor failed *)
              ()
            | Some (Ok step) ->
              locked t (fun () ->
                  let first =
                    match Hashtbl.find_opt t.cert_state name with
                    | Some (_, true) -> false
                    | _ -> true
                  in
                  if first then t.certified <- t.certified + 1;
                  Hashtbl.replace t.cert_state name (size, true));
              with_obs t (fun obs ->
                  Obs.incr obs "repl.certified";
                  Obs.set_gauge obs "repl.certified_step" (float_of_int step))
            | Some (Error why) ->
              locked t (fun () ->
                  t.cert_fails <- t.cert_fails + 1;
                  t.last_error <- Some why;
                  Hashtbl.replace t.cert_state name (size, false));
              with_obs t (fun obs -> Obs.incr obs "repl.cert_fail")
        end)
      names

let certify_loop t =
  while not t.stop do
    (try certify_sweep t with _ -> ());
    if not t.stop then
      try ignore (Unix.select [ t.wake_r ] [] [] t.cfg.cert_interval)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.mkdir cfg.spool_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listener 8;
  let obs, obs_close =
    match Obs.files ?metrics:cfg.metrics () with
    | Ok pair -> pair
    | Error _ -> (Obs.disabled, ignore)
  in
  let shard =
    Option.map (Tracectx.Shard.open_ ~proc:"receiver") cfg.trace_shard
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      cfg;
      listener;
      obs;
      obs_close;
      obs_mu = Mutex.create ();
      shard;
      mu = Mutex.create ();
      conn = None;
      sessions = 0;
      applied = 0;
      dups = 0;
      nacks = 0;
      certified = 0;
      cert_fails = 0;
      last_error = None;
      stop = false;
      cancel = Limits.Cancel.create ();
      wake_r;
      wake_w;
      cert_state = Hashtbl.create 16;
      accepter = None;
      certifier = None;
    }
  in
  t.accepter <- Some (Thread.create (fun () -> accept_loop t) ());
  if cfg.cert_interval > 0. then
    t.certifier <- Some (Thread.create (fun () -> certify_loop t) ());
  t

let stop t =
  if not t.stop then begin
    t.stop <- true;
    (* end a certification in progress and the certifier's sleep:
       promotion must not wait for either *)
    Limits.Cancel.cancel ~reason:"receiver stopping" t.cancel;
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    (* wake the accept loop: neither close nor shutdown does, on an
       AF_UNIX listener — a throwaway connection does *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket)
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    (match locked t (fun () -> t.conn) with
    | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accepter;
    Option.iter Thread.join t.certifier;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.wake_r; t.wake_w ];
    Option.iter Tracectx.Shard.close t.shard;
    (* final metric summaries — the artifact obs_check validates *)
    Mutex.lock t.obs_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.obs_mu)
      (fun () -> t.obs_close ());
    try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ()
  end

let last_error t = locked t (fun () -> t.last_error)

let stats t =
  locked t (fun () ->
      [
        ("applied", t.applied);
        ("cert_fails", t.cert_fails);
        ("certified", t.certified);
        ("dups", t.dups);
        ("nacks", t.nacks);
        ("sessions", t.sessions);
      ])

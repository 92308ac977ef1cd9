(** A standby chase daemon: a {!Receiver} soaking up the primary's
    durable state, plus a stub request loop on the {e service} socket
    that answers control ops only — work is refused with a structured
    error naming the condition, so a failover client can tell "standby"
    from "dead".

    Promotion is the whole point: on [promote] (the wire op, or
    {!promote} in process) the receiver and the stub stop, and an
    ordinary {!Chase_service.Server} boots on the same spool — its
    standard boot recovery completes every acknowledged-but-unanswered
    request by a re-run from step zero that checks each step against
    the received journal and appends only past its end.  Nothing about
    promotion is special-cased in the server: a promoted standby {e is}
    a primary that just booted, which is exactly why its responses are
    byte-identical to ones the dead primary would have produced.

    The doctrine, stated once: ship durable state, re-derive
    everything else. *)

module Proto = Chase_service.Proto
module Server = Chase_service.Server
module Jsonv = Chase_obs.Jsonv
module Telemetry = Chase_obs.Telemetry

type config = {
  server : Server.config;
      (** the server this standby becomes when promoted; its
          [spool_dir] (required) is where received state lands *)
  ship_socket : string;
  cert_interval : float;
  metrics : string option;
      (** the {e receiver's} metrics file; the promoted server runs
          with the server config's own [metrics] (usually [None] — one
          file has one owner) *)
}

let config ?(cert_interval = 0.25) ?metrics ~server ~ship_socket () =
  { server; ship_socket; cert_interval; metrics }

type state =
  | Receiving of Receiver.t
  | Promoted of Server.t

type t = {
  cfg : config;
  started : float;  (** boot wall-clock, for uptime reporting *)
  mu : Mutex.t;
  cond : Condition.t;
  mutable state : state;
  mutable listener : Unix.file_descr option;
  mutable conns : Unix.file_descr list;
  mutable threads : Thread.t list;
  mutable stub_stopping : bool;
  mutable finished : bool;
  mutable accepter : Thread.t option;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let spool_dir cfg =
  match cfg.server.Server.spool_dir with
  | Some d -> d
  | None -> invalid_arg "Standby.start: the server config needs a spool_dir"

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)
(* ------------------------------------------------------------------ *)

(* Stop the stub listener and the receiver, then boot the real server
   on the same socket and spool.  Idempotent: a second call (or a
   [promote] op reaching an already-promoted standby) is a no-op. *)
let promote t =
  let receiver =
    locked t (fun () ->
        match t.state with
        | Promoted _ -> None
        | Receiving r ->
          t.stub_stopping <- true;
          Some r)
  in
  match receiver with
  | None -> ()
  | Some r ->
    (* order matters: no ship frame may land after boot recovery starts
       reading the spool, and the stub's listener must release the
       service socket before the server binds it *)
    Receiver.stop r;
    (match locked t (fun () -> t.listener) with
    | Some fd ->
      (try
         (* wake the stub accept loop with a throwaway connection *)
         let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect poke (Unix.ADDR_UNIX t.cfg.server.Server.socket)
          with Unix.Unix_error _ -> ());
         try Unix.close poke with Unix.Unix_error _ -> ()
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match locked t (fun () -> t.accepter) with
    | Some th -> Thread.join th
    | None -> ());
    List.iter
      (fun fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      (locked t (fun () -> t.conns));
    List.iter Thread.join (locked t (fun () -> t.threads));
    (* every stub fd is closed exactly once: a later [stop] must not
       close them again (the numbers may have been reused by now) *)
    locked t (fun () ->
        t.conns <- [];
        t.threads <- [];
        t.listener <- None;
        t.accepter <- None);
    let server = Server.start t.cfg.server in
    locked t (fun () ->
        t.state <- Promoted server;
        Condition.broadcast t.cond)

(* ------------------------------------------------------------------ *)
(* The stub request loop                                               *)
(* ------------------------------------------------------------------ *)

let ok_result stdout =
  Proto.Ok_response
    { Proto.exit_code = 0; stdout; stderr = ""; cached = false }

(* The standby's ping mirrors the primary's shape (role is the
   discriminator) so `chasec ping` renders either end uniformly. *)
let ping_body t =
  Jsonv.to_string
    (Jsonv.Obj
       [
         ("pong", Jsonv.Bool true);
         ("role", Jsonv.String "standby");
         ("build", Jsonv.String Telemetry.build_id);
         ( "uptime_s",
           Jsonv.Float
             (Float.round ((Unix.gettimeofday () -. t.started) *. 1000.)
             /. 1000.) );
         ("pid", Jsonv.Int (Unix.getpid ()));
         ("socket", Jsonv.String t.cfg.server.Server.socket);
         ("spool", Jsonv.String (spool_dir t.cfg));
       ])

(* A telemetry snapshot from the stub: the receiver's (or promoted
   server's) live counters poured into a registry, same schema the
   primary serves, with role=standby telling the ends apart. *)
let telemetry_body t req =
  let m = Chase_obs.Metrics.create () in
  (match locked t (fun () -> t.state) with
  | Receiving r ->
    List.iter
      (fun (k, v) -> Chase_obs.Metrics.incr m ~by:v ("repl." ^ k))
      (Receiver.stats r)
  | Promoted s ->
    List.iter
      (fun (k, v) -> Chase_obs.Metrics.incr m ~by:v ("svc." ^ k))
      (Server.stats s));
  let extra = [ ("role", Jsonv.String "standby") ] in
  let uptime_s = Unix.gettimeofday () -. t.started in
  match req.Proto.variant with
  | Some "prom" -> Telemetry.prometheus ~extra ~uptime_s m
  | _ -> Telemetry.json ~extra ~uptime_s m ^ "\n"

let stats_json t =
  let counters =
    match locked t (fun () -> t.state) with
    | Receiving r -> Receiver.stats r
    | Promoted s -> Server.stats s
  in
  Jsonv.to_string
    (Jsonv.Obj
       (("role", Jsonv.String "standby")
       :: List.map (fun (k, v) -> (k, Jsonv.Int v)) counters))

let handle_stub_conn t fd =
  let respond ~id resp =
    try Proto.write_frame fd (Proto.encode_response ~id resp)
    with Unix.Unix_error _ -> ()
  in
  let rec loop () =
    if t.stub_stopping then ()
    else
      match Proto.read_frame fd with
      | exception Unix.Unix_error _ -> ()
      | `Closed -> ()
      | `Bad msg -> respond ~id:"0" (Proto.Bad_frame msg)
      | `Frame payload -> (
        match Proto.decode_request payload with
        | Error msg ->
          respond ~id:"0" (Proto.Bad_request msg);
          loop ()
        | Ok req -> (
          let id = req.Proto.id in
          match req.Proto.op with
          | Proto.Ping ->
            respond ~id (ok_result (ping_body t ^ "\n"));
            loop ()
          | Proto.Stats ->
            respond ~id (ok_result (stats_json t ^ "\n"));
            loop ()
          | Proto.Telemetry ->
            respond ~id (ok_result (telemetry_body t req));
            loop ()
          | Proto.Promote ->
            (* close the stub before answering, so the client's instant
               re-send is not refused; its retries ride out the boot *)
            locked t (fun () -> t.stub_stopping <- true);
            respond ~id (ok_result "promoted\n");
            ignore (Thread.create (fun () -> promote t) ())
          | Proto.Shutdown ->
            respond ~id (ok_result "bye\n");
            ignore
              (Thread.create
                 (fun () ->
                   locked t (fun () -> t.stub_stopping <- true);
                   (match locked t (fun () -> t.state) with
                   | Receiving r -> Receiver.stop r
                   | Promoted _ -> ());
                   (match locked t (fun () -> t.listener) with
                   | Some l ->
                     (try Unix.close l with Unix.Unix_error _ -> ())
                   | None -> ());
                   locked t (fun () ->
                       t.finished <- true;
                       Condition.broadcast t.cond))
                 ())
          | Proto.Decide | Proto.Chase | Proto.Lint | Proto.Query ->
            (* the structured refusal a failover client keys on *)
            respond ~id
              (Proto.Server_error "standby: not serving requests (promote first)");
            loop ()))
  in
  loop ()

let stub_accept_loop t listener =
  let rec loop () =
    if t.stub_stopping then ()
    else
      match Unix.accept listener with
      | exception Unix.Unix_error _ -> ()
      | fd, _ when t.stub_stopping ->
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | fd, _ ->
        let th = Thread.create (fun () -> handle_stub_conn t fd) () in
        locked t (fun () ->
            t.conns <- fd :: t.conns;
            t.threads <- th :: t.threads);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let dir = spool_dir cfg in
  let receiver =
    Receiver.start
      (Receiver.config ~cert_interval:cfg.cert_interval ?metrics:cfg.metrics
         ?trace_shard:cfg.server.Server.trace_shard ~spool_dir:dir
         ~socket:cfg.ship_socket ())
  in
  (try Unix.unlink cfg.server.Server.socket with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX cfg.server.Server.socket);
  Unix.listen listener 16;
  let t =
    {
      cfg;
      started = Unix.gettimeofday ();
      mu = Mutex.create ();
      cond = Condition.create ();
      state = Receiving receiver;
      listener = Some listener;
      conns = [];
      threads = [];
      stub_stopping = false;
      finished = false;
      accepter = None;
    }
  in
  t.accepter <- Some (Thread.create (fun () -> stub_accept_loop t listener) ());
  t

let receiver t =
  match locked t (fun () -> t.state) with
  | Receiving r -> Some r
  | Promoted _ -> None

let server t =
  match locked t (fun () -> t.state) with
  | Promoted s -> Some s
  | Receiving _ -> None

let is_promoted t = Option.is_some (server t)

let wait t =
  match locked t (fun () -> t.state) with
  | Promoted s -> Server.wait s
  | Receiving _ ->
    Mutex.lock t.mu;
    while not (t.finished || match t.state with Promoted _ -> true | _ -> false) do
      Condition.wait t.cond t.mu
    done;
    let state = t.state in
    Mutex.unlock t.mu;
    (match state with Promoted s -> Server.wait s | Receiving _ -> ())

let stop ?(graceful = true) t =
  locked t (fun () -> t.stub_stopping <- true);
  (match locked t (fun () -> t.listener) with
  | Some l ->
    (try
       let poke = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect poke (Unix.ADDR_UNIX t.cfg.server.Server.socket)
        with Unix.Unix_error _ -> ());
       try Unix.close poke with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    (try Unix.close l with Unix.Unix_error _ -> ())
  | None -> ());
  (match locked t (fun () -> t.accepter) with
  | Some th -> Thread.join th
  | None -> ());
  List.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (locked t (fun () -> t.conns));
  List.iter Thread.join (locked t (fun () -> t.threads));
  locked t (fun () ->
      t.conns <- [];
      t.threads <- [];
      t.listener <- None;
      t.accepter <- None);
  (match locked t (fun () -> t.state) with
  | Receiving r -> Receiver.stop r
  | Promoted s -> Server.stop ~graceful s);
  (try Unix.unlink t.cfg.server.Server.socket with Unix.Unix_error _ -> ());
  locked t (fun () ->
      t.finished <- true;
      Condition.broadcast t.cond)

(** Replication tests: the {!Shipframe} codec, a raw-socket fuzz of the
    {!Receiver} (duplicates, gaps, corrupt payloads, truncated frames —
    none may corrupt the standby's spool), the {!Shipper}'s chaos
    faults driving real resyncs, streaming progress-frame invariants,
    and the replicated failover soak: a primary/standby pair where the
    primary is killed at 10+ random points with durable requests in
    flight, the standby is promoted (explicitly or through the failover
    client's discovery), and {e every} acknowledged request must
    re-derive on the standby byte-identical to the never-killed
    reference. *)

open Chase

let tmp = Test_service.tmp_name

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Corpus: durable chases whose expected bytes come from the same
   Driver the single-shot CLIs run — the never-killed reference.       *)

let cycle_graph n =
  let b = Buffer.create 256 in
  Buffer.add_string b "tc: e(X, Y), e(Y, Z) -> e(X, Z).\n";
  for i = 0 to n - 1 do
    Buffer.add_string b (Fmt.str "e(n%d, n%d).\n" i ((i + 1) mod n))
  done;
  Buffer.contents b

let path_program = "tc: e(X, Y), e(Y, Z) -> e(X, Z).\ne(a,b). e(b,c). e(c,d).\n"
let drill_budget = 8_000
let drill_program = cycle_graph 18

type expected = { req : Proto.request; code : int; out : string; err : string }

let expect op ~program ~budget ~quiet ~durable =
  let code, out, err =
    Test_service.driver_bytes op ~budget ~src:program ~quiet
  in
  let req =
    Proto.request ~file:"t.chase" ~program ~budget ~quiet ~durable op
  in
  { req; code; out; err }

let check_parity name exp (r : Proto.result) =
  Alcotest.(check int) (name ^ ": exit") exp.code r.Proto.exit_code;
  Alcotest.(check string) (name ^ ": stdout") exp.out r.Proto.stdout;
  Alcotest.(check string) (name ^ ": stderr") exp.err r.Proto.stderr

let corpus =
  lazy
    [
      expect Proto.Chase ~program:drill_program ~budget:drill_budget
        ~quiet:true ~durable:true;
      expect Proto.Chase ~program:path_program ~budget:10_000 ~quiet:true
        ~durable:true;
      expect Proto.Chase ~program:path_program ~budget:10_000 ~quiet:false
        ~durable:true;
    ]

(* ------------------------------------------------------------------ *)
(* Shipframe codec                                                     *)

let test_shipframe_roundtrip () =
  let ship seq head kind name data =
    Shipframe.Ship { Shipframe.seq; head; kind; name; data; trace = None }
  in
  let msgs =
    [
      Shipframe.Hello 3;
      ship 1 4 Shipframe.File "k.req" "\x00\x01\xffraw bytes";
      ship 2 2 (Shipframe.Journal 0) "k.jnl" "CHJ1\x00header";
      ship 7 9 (Shipframe.Journal 128) "k.jnl" "frame";
      ship 3 3 Shipframe.Delete "k.resp" "";
      Shipframe.Ack 42;
      Shipframe.Nack (5, "sequence gap: got 9, expected 5");
    ]
  in
  List.iter
    (fun m ->
      match Shipframe.decode (Shipframe.encode m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.failf "roundtrip rejected: %s" e)
    msgs

(* Flip one hex digit of the encoded payload, leaving the declared CRC
   intact — the exact corruption [Faults.Corrupt_ship] injects. *)
let flip_data_digit payload =
  let marker = "\"data\":\"" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length payload then
      Alcotest.fail "no data field to corrupt"
    else if String.sub payload i mlen = marker then i + mlen
    else find (i + 1)
  in
  let i = find 0 in
  if i >= String.length payload || payload.[i] = '"' then
    Alcotest.fail "empty data field";
  let b = Bytes.of_string payload in
  Bytes.set b i (if payload.[i] = '0' then '1' else '0');
  Bytes.to_string b

let test_shipframe_rejects () =
  let reject name payload =
    match Shipframe.decode payload with
    | Error _ -> ()
    | Ok m -> Alcotest.failf "%s decoded as %a" name Shipframe.pp m
  in
  let ship data =
    Shipframe.encode
      (Shipframe.Ship
         { Shipframe.seq = 1; head = 1; kind = Shipframe.File;
           name = "k.req"; data; trace = None })
  in
  (* corrupt payload under an intact CRC *)
  reject "bad crc" (flip_data_digit (ship "0123456789"));
  (* odd-length hex *)
  let enc = ship "ab" in
  let marker_at =
    let m = "\"data\":\"" in
    let rec find i =
      if String.sub enc i (String.length m) = m then i + String.length m
      else find (i + 1)
    in
    find 0
  in
  reject "odd hex"
    (String.sub enc 0 marker_at
    ^ String.sub enc (marker_at + 1) (String.length enc - marker_at - 1));
  (* path escapes and dotfiles in the name *)
  List.iter
    (fun name ->
      reject ("name " ^ name)
        (Shipframe.encode
           (Shipframe.Ship
              { Shipframe.seq = 1; head = 1; kind = Shipframe.File; name;
                data = "x"; trace = None })))
    [ "../evil"; "a/b"; ".hidden"; "" ];
  (* not even JSON *)
  reject "junk" "@@@@";
  reject "truncated json" {|{"type":"ship","seq|};
  reject "unknown type" {|{"type":"frobnicate"}|};
  Alcotest.(check bool) "valid_name accepts plain keys" true
    (Shipframe.valid_name "0f3a.req");
  Alcotest.(check bool) "valid_name rejects separators" false
    (Shipframe.valid_name "a/b")

(* ------------------------------------------------------------------ *)
(* Client backoff hardening: the ceiling really caps every delay, and
   a give-up accounts for its attempts and total wait.                 *)

let test_backoff_ceiling () =
  let socket = tmp ".sock" in
  (* nothing listens there *)
  let delays = ref [] in
  match
    Client.call_retry ~attempts:4 ~base_delay:0.01 ~max_delay:0.02 ~seed:7
      ~on_retry:(fun ~attempt:_ ~delay _ -> delays := delay :: !delays)
      ~socket (Proto.request Proto.Ping)
  with
  | Ok _ -> Alcotest.fail "no server, yet the call succeeded"
  | Error (Client.Rejected _) -> Alcotest.fail "expected Gave_up"
  | Error (Client.Gave_up { attempts; total_wait; last }) ->
    Alcotest.(check int) "attempts reported" 4 attempts;
    Alcotest.(check int) "every attempt backed off" 4 (List.length !delays);
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Fmt.str "delay %.4f <= ceiling" d)
          true
          (d <= 0.02 +. 1e-9))
      !delays;
    let sum = List.fold_left ( +. ) 0. !delays in
    Alcotest.(check (float 1e-6)) "total_wait = sum of delays" sum total_wait;
    Alcotest.(check bool) "last error is descriptive" true
      (String.length last > 0)

(* ------------------------------------------------------------------ *)
(* Receiver fuzz over a raw socket: speak the ship protocol by hand.   *)

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  fd

let close_raw fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send_msg fd msg = Proto.write_frame fd (Shipframe.encode msg)

let recv_msg fd =
  match Proto.read_frame fd with
  | `Frame p -> (
    match Shipframe.decode p with
    | Ok m -> m
    | Error e -> Alcotest.failf "undecodable reply: %s" e)
  | `Closed -> Alcotest.fail "connection closed instead of a reply"
  | `Bad e -> Alcotest.failf "bad reply frame: %s" e

let ship seq head kind name data =
  Shipframe.Ship { Shipframe.seq; head; kind; name; data; trace = None }

let test_receiver_fuzz () =
  let spool = tmp ".rspool" in
  let socket = tmp ".ship.sock" in
  let recvr =
    Receiver.start (Receiver.config ~cert_interval:0. ~spool_dir:spool ~socket ())
  in
  let payload = "the quick brown fox" in
  (* a clean session: hello, ship, cumulative ack *)
  let fd = connect_raw socket in
  send_msg fd (Shipframe.Hello 1);
  send_msg fd (ship 1 2 Shipframe.File "k1.req" payload);
  (match recv_msg fd with
  | Shipframe.Ack 1 -> ()
  | m -> Alcotest.failf "expected ack 1, got %a" Shipframe.pp m);
  (* a duplicate with different bytes: re-acked, NOT re-applied *)
  send_msg fd (ship 1 2 Shipframe.File "k1.req" "IMPOSTOR");
  (match recv_msg fd with
  | Shipframe.Ack 1 -> ()
  | m -> Alcotest.failf "dup: expected re-ack 1, got %a" Shipframe.pp m);
  (* a sequence gap: the nack names the expected seq — the re-request *)
  send_msg fd (ship 5 5 Shipframe.File "k2.req" "x");
  (match recv_msg fd with
  | Shipframe.Nack (2, _) -> ()
  | m -> Alcotest.failf "gap: expected nack 2, got %a" Shipframe.pp m);
  close_raw fd;
  (* a corrupt payload under an intact CRC: structured reject *)
  let fd = connect_raw socket in
  send_msg fd (Shipframe.Hello 2);
  Proto.write_frame fd
    (flip_data_digit
       (Shipframe.encode (ship 1 1 Shipframe.File "k1.req" "replacement")));
  (match recv_msg fd with
  | Shipframe.Nack (1, _) -> ()
  | m -> Alcotest.failf "crc: expected nack 1, got %a" Shipframe.pp m);
  close_raw fd;
  (* a journal append at the wrong offset: rejected before any write *)
  let fd = connect_raw socket in
  send_msg fd (Shipframe.Hello 3);
  send_msg fd (ship 1 1 (Shipframe.Journal 999) "k9.jnl" "zz");
  (match recv_msg fd with
  | Shipframe.Nack (1, _) -> ()
  | m -> Alcotest.failf "offset: expected nack 1, got %a" Shipframe.pp m);
  close_raw fd;
  (* a frame truncated mid-payload: dropped without corruption *)
  let fd = connect_raw socket in
  let torn = Bytes.of_string "40\n{\"type\"" in
  ignore (Unix.write fd torn 0 (Bytes.length torn));
  close_raw fd;
  (* the receiver still serves a clean session after all of it *)
  let fd = connect_raw socket in
  send_msg fd (Shipframe.Hello 4);
  send_msg fd (ship 1 1 Shipframe.File "k2.req" "bye");
  (match recv_msg fd with
  | Shipframe.Ack 1 -> ()
  | m -> Alcotest.failf "post-fuzz: expected ack 1, got %a" Shipframe.pp m);
  close_raw fd;
  (* the spool holds exactly what clean sessions shipped *)
  Alcotest.(check string) "k1.req never corrupted" payload
    (read_file (Filename.concat spool "k1.req"));
  Alcotest.(check string) "k2.req applied" "bye"
    (read_file (Filename.concat spool "k2.req"));
  Alcotest.(check bool) "no journal materialised" false
    (Sys.file_exists (Filename.concat spool "k9.jnl"));
  let stats = Receiver.stats recvr in
  Alcotest.(check int) "applied" 2 (List.assoc "applied" stats);
  Alcotest.(check int) "dups" 1 (List.assoc "dups" stats);
  Alcotest.(check int) "nacks" 3 (List.assoc "nacks" stats);
  Alcotest.(check int) "sessions" 4 (List.assoc "sessions" stats);
  Receiver.stop recvr

(* ------------------------------------------------------------------ *)
(* Shipper chaos: cut / duplicated / corrupted / delayed ship frames
   drive real resyncs, and the two spools still converge bytewise.     *)

let test_shipper_chaos_resync () =
  let src = tmp ".sspool" in
  let dst = tmp ".dspool" in
  Unix.mkdir src 0o755;
  write_file (Filename.concat src "a.req") "alpha";
  write_file (Filename.concat src "b.req") "beta";
  write_file (Filename.concat src "c.resp") "gamma";
  let socket = tmp ".ship.sock" in
  let recvr =
    Receiver.start (Receiver.config ~cert_interval:0. ~spool_dir:dst ~socket ())
  in
  let shipper =
    Shipper.start
      (Shipper.config ~sync_timeout:0. ~poll_interval:0.01
         ~connect_retry:0.01
         ~faults:
           [
             Faults.Cut_ship_after 1;
             Faults.Dup_ship 3;
             Faults.Corrupt_ship 5;
             Faults.Delay_ship (6, 0.05);
           ]
         ~spool_dir:src ~ship_socket:socket ())
  in
  (* [quiesce] right after [start] is vacuously true — wait for the
     first session's resync to pick the files up before draining *)
  let enqueued () = List.assoc "enqueued" (Shipper.stats shipper) in
  let wait_until ?(timeout = 10.0) f =
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go () =
      if f () then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        Thread.delay 0.01;
        go ()
      end
    in
    go ()
  in
  (* frame 1 is cut → session 2 resyncs all three files (frames 2-4,
     frame 3 duplicated) *)
  Alcotest.(check bool) "resync picked up the spool" true
    (wait_until (fun () -> enqueued () >= 3));
  Alcotest.(check bool) "quiesced through the partition" true
    (Shipper.quiesce shipper ~timeout:10.0);
  (* a fourth file arrives via the tailer as frame 5 — corrupted →
     nack → session 3 resyncs everything (frame 6 delayed) *)
  let e0 = enqueued () in
  write_file (Filename.concat src "d.req.tmp") "delta";
  Sys.rename
    (Filename.concat src "d.req.tmp")
    (Filename.concat src "d.req");
  Alcotest.(check bool) "tailer picked up the new file" true
    (wait_until (fun () -> enqueued () > e0));
  Alcotest.(check bool) "quiesced through the corruption" true
    (Shipper.quiesce shipper ~timeout:10.0);
  List.iter
    (fun name ->
      Alcotest.(check string)
        (name ^ " converged")
        (read_file (Filename.concat src name))
        (read_file (Filename.concat dst name)))
    [ "a.req"; "b.req"; "c.resp"; "d.req" ];
  let s = Shipper.stats shipper in
  Alcotest.(check bool)
    (Fmt.str "shipper resynced (%d sessions)" (List.assoc "sessions" s))
    true
    (List.assoc "sessions" s >= 3);
  Alcotest.(check int) "nothing left queued" 0 (List.assoc "queue" s);
  let r = Receiver.stats recvr in
  Alcotest.(check bool)
    (Fmt.str "corruption drew a nack (%d)" (List.assoc "nacks" r))
    true
    (List.assoc "nacks" r >= 1);
  Alcotest.(check bool)
    (Fmt.str "duplicate re-acked (%d)" (List.assoc "dups" r))
    true
    (List.assoc "dups" r >= 1);
  Shipper.stop shipper;
  Receiver.stop recvr

(* ------------------------------------------------------------------ *)
(* Streaming progress frames: monotone, strictly before the final
   response, and the final bytes identical to a non-streamed run.      *)

let test_streaming_progress () =
  let socket = tmp ".sock" in
  let server = Server.start (Server.config ~workers:2 socket) in
  (* the first frame is due 50 ms into the chase: 64,000 triggers keep
     the run well past that on a fast engine *)
  let program = cycle_graph 40 in
  let budget = 100_000 in
  let code, out, err =
    Test_service.driver_bytes Proto.Chase ~budget ~src:program ~quiet:true
  in
  let frames = ref [] in
  let final = ref false in
  (match Client.connect ~socket () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok conn ->
    let req =
      Proto.request ~file:"t.chase" ~program ~budget ~quiet:true ~stream:true
        Proto.Chase
    in
    (match
       Client.call conn req
         ~on_progress:(fun p ->
           Alcotest.(check bool) "progress strictly before the final frame"
             false !final;
           frames := p :: !frames)
     with
    | Ok (Proto.Ok_response r) ->
      final := true;
      Alcotest.(check int) "stream: exit" code r.Proto.exit_code;
      Alcotest.(check string) "stream: stdout" out r.Proto.stdout;
      Alcotest.(check string) "stream: stderr" err r.Proto.stderr
    | Ok resp -> Alcotest.failf "stream: %a" Proto.pp_response resp
    | Error e -> Alcotest.failf "stream: transport: %s" e);
    Client.close conn);
  let frames = List.rev !frames in
  Alcotest.(check bool)
    (Fmt.str "progress frames streamed (%d)" (List.length frames))
    true
    (List.length frames >= 1);
  ignore
    (List.fold_left
       (fun (pstep, pelapsed) (p : Proto.progress) ->
         Alcotest.(check bool) "step strictly increases" true
           (p.Proto.step > pstep);
         Alcotest.(check bool) "elapsed never decreases" true
           (p.Proto.elapsed >= pelapsed);
         Alcotest.(check bool) "atoms positive" true (p.Proto.atoms > 0);
         Alcotest.(check bool) "nulls non-negative" true (p.Proto.nulls >= 0);
         (p.Proto.step, p.Proto.elapsed))
       (0, 0.) frames);
  (* the same work without streaming: byte-identical final response *)
  let req =
    Proto.request ~file:"t.chase" ~program ~budget ~quiet:true Proto.Chase
  in
  (match Client.call_retry ~attempts:3 ~socket req with
  | Ok (Proto.Ok_response r) ->
    Alcotest.(check int) "plain: exit" code r.Proto.exit_code;
    Alcotest.(check string) "plain: stdout" out r.Proto.stdout;
    Alcotest.(check string) "plain: stderr" err r.Proto.stderr
  | Ok resp -> Alcotest.failf "plain: %a" Proto.pp_response resp
  | Error f -> Alcotest.failf "plain: %a" Client.pp_failure f);
  Server.stop server;
  Server.wait server

(* ------------------------------------------------------------------ *)
(* The replicated failover soak.                                       *)

let kill_cycles = 11

(* One primary/standby pair; returns what was torn down promoted. *)
let replicated_pair ~primary_socket ~standby_socket ~ship ~spool_p ~spool_s
    ?metrics ?(cert_interval = 0.25) () =
  let standby =
    Standby.start
      (Standby.config ~cert_interval ?metrics
         ~server:(Server.config ~workers:3 ~spool_dir:spool_s standby_socket)
         ~ship_socket:ship ())
  in
  let shipper =
    Shipper.start
      (Shipper.config ~sync_timeout:2.0 ~poll_interval:0.02
         ~connect_retry:0.02 ~spool_dir:spool_p ~ship_socket:ship ())
  in
  let server =
    Server.start
      (Server.config ~workers:3 ~spool_dir:spool_p
         ~on_durable:(Shipper.on_durable shipper) primary_socket)
  in
  (standby, shipper, server)

(* After promotion: the shipped spool must drain (zero lost
   acknowledged requests) and every response the dead primary
   acknowledged must re-derive byte-identically on the standby. *)
let audit_standby ~cycle ~standby_socket ~spool_s acked =
  let spool = Spool.create ~dir:spool_s in
  let rec drain k =
    match Spool.pending spool with
    | [] -> ()
    | pending ->
      if k = 0 then
        Alcotest.failf "cycle %d: lost acknowledged requests: %s" cycle
          (String.concat ", " pending)
      else begin
        Thread.delay 0.05;
        drain (k - 1)
      end
  in
  drain 200;
  List.iter
    (fun (exp, (primary_r : Proto.result)) ->
      match
        Client.call_retry ~attempts:8 ~base_delay:0.05 ~socket:standby_socket
          exp.req
      with
      | Ok (Proto.Ok_response r) ->
        check_parity "standby" exp r;
        Alcotest.(check int) "standby exit = primary exit"
          primary_r.Proto.exit_code r.Proto.exit_code;
        Alcotest.(check string) "standby stdout = primary stdout"
          primary_r.Proto.stdout r.Proto.stdout;
        Alcotest.(check string) "standby stderr = primary stderr"
          primary_r.Proto.stderr r.Proto.stderr
      | Ok resp -> Alcotest.failf "standby rejected: %a" Proto.pp_response resp
      | Error f -> Alcotest.failf "standby: %a" Client.pp_failure f)
    acked

let test_failover_soak () =
  let corpus = Lazy.force corpus in
  let n = List.length corpus in
  let kills = ref 0 in
  let acked_total = ref 0 in
  (* phase A: kill the primary at a different point every cycle *)
  for cycle = 0 to kill_cycles - 1 do
    let a = tmp ".a.sock" in
    let b = tmp ".b.sock" in
    let ship = tmp ".ship.sock" in
    let spool_p = tmp ".p.spool" in
    let spool_s = tmp ".s.spool" in
    let standby, shipper, server =
      replicated_pair ~primary_socket:a ~standby_socket:b ~ship ~spool_p
        ~spool_s ()
    in
    let mu = Mutex.create () in
    let acked = ref [] in
    let threads =
      List.init 4 (fun i ->
          Thread.create
            (fun () ->
              let exp = List.nth corpus ((cycle + i) mod n) in
              (* the kill races this call: losing the request is fine,
                 losing an *acknowledged* one is the bug we hunt *)
              match
                Client.call_retry ~attempts:2 ~base_delay:0.01 ~socket:a
                  exp.req
              with
              | Ok (Proto.Ok_response r) ->
                check_parity "primary" exp r;
                Mutex.lock mu;
                acked := (exp, r) :: !acked;
                Mutex.unlock mu
              | Ok _ | Error _ -> ())
            ())
    in
    (if cycle = 0 then begin
       (* the first kill waits (at most 2 s) for one acknowledgement, so a
          loaded host cannot leave every cycle without one; the other
          requests are still in flight when it lands *)
       let deadline = Unix.gettimeofday () +. 2.0 in
       let none_acked () = Mutex.protect mu (fun () -> !acked = []) in
       while none_acked () && Unix.gettimeofday () < deadline do
         Thread.delay 0.001
       done
     end
     else Thread.delay (0.004 +. (0.006 *. float_of_int (cycle mod 5))));
    Server.kill server;
    Server.wait server;
    incr kills;
    List.iter Thread.join threads;
    Shipper.stop shipper;
    let acked_now = !acked in
    acked_total := !acked_total + List.length acked_now;
    Standby.promote standby;
    audit_standby ~cycle ~standby_socket:b ~spool_s acked_now;
    Standby.stop standby
  done;
  Alcotest.(check bool) (Fmt.str "kills %d >= 10" !kills) true (!kills >= 10);
  Alcotest.(check bool)
    (Fmt.str "acknowledged under fire (%d)" !acked_total)
    true (!acked_total >= 1);
  (* phase B: client-driven discovery.  A durable request completes on
     the primary, the standby certifies the shipped journal, the
     primary dies, and the failover client finds + promotes the
     standby on its own — then serves byte-identical bytes. *)
  let a = tmp ".a.sock" in
  let b = tmp ".b.sock" in
  let ship = tmp ".ship.sock" in
  let spool_p = tmp ".p.spool" in
  let spool_s = tmp ".s.spool" in
  let metrics = tmp ".jsonl" in
  let standby, shipper, server =
    replicated_pair ~primary_socket:a ~standby_socket:b ~ship ~spool_p
      ~spool_s ~metrics ~cert_interval:0.1 ()
  in
  let exp = List.hd corpus in
  let primary_r =
    match Client.call_retry ~attempts:5 ~socket:a exp.req with
    | Ok (Proto.Ok_response r) ->
      check_parity "pre-failover" exp r;
      r
    | Ok resp -> Alcotest.failf "pre-failover: %a" Proto.pp_response resp
    | Error f -> Alcotest.failf "pre-failover: %a" Client.pp_failure f
  in
  Alcotest.(check bool) "replication quiesced" true
    (Shipper.quiesce shipper ~timeout:10.0);
  (* continuous certification must clear the shipped journal *)
  let receiver =
    match Standby.receiver standby with
    | Some r -> r
    | None -> Alcotest.fail "standby already promoted?"
  in
  let rec wait_cert k =
    let s = Receiver.stats receiver in
    if List.assoc "certified" s >= 1 then ()
    else if List.assoc "cert_fails" s >= 1 then
      Alcotest.failf "standby certification failed: %s"
        (Option.value ~default:"-" (Receiver.last_error receiver))
    else if k = 0 then Alcotest.fail "standby never certified the journal"
    else begin
      Thread.delay 0.1;
      wait_cert (k - 1)
    end
  in
  wait_cert 100;
  Server.kill server;
  Server.wait server;
  incr kills;
  Shipper.stop shipper;
  (* the failover client: dead primary first, standby second *)
  let events = ref [] in
  (match
     Failover.call ~attempts_per_server:8 ~base_delay:0.05 ~seed:1
       ~on_event:(fun e -> events := e :: !events)
       ~servers:[ a; b ] exp.req
   with
  | Ok o ->
    Alcotest.(check string) "served by the standby" b o.Failover.server;
    Alcotest.(check bool) "promoted en route" true o.Failover.promoted;
    Alcotest.(check bool) "gave up on the dead primary" true
      (o.Failover.failovers >= 1);
    (match o.Failover.response with
    | Proto.Ok_response r ->
      check_parity "discovery" exp r;
      Alcotest.(check string) "byte-identical to the dead primary"
        primary_r.Proto.stdout r.Proto.stdout
    | resp -> Alcotest.failf "discovery: %a" Proto.pp_response resp)
  | Error f -> Alcotest.failf "discovery: %a" Failover.pp_failure f);
  (* a second call must find the promoted standby without promoting *)
  (match
     Failover.call ~attempts_per_server:4 ~base_delay:0.05 ~seed:2
       ~servers:[ a; b ] exp.req
   with
  | Ok o ->
    Alcotest.(check bool) "no second promotion" false o.Failover.promoted;
    Alcotest.(check string) "still the standby" b o.Failover.server
  | Error f -> Alcotest.failf "post-promotion: %a" Failover.pp_failure f);
  audit_standby ~cycle:(-1) ~standby_socket:b ~spool_s [ (exp, primary_r) ];
  Standby.stop standby;
  (* the receiver's metrics file: valid JSONL carrying the replication
     lag histogram *)
  let lines = ref 0 in
  let saw_repl = ref false in
  let ic = open_in metrics in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       (match Jsonv.of_string line with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "bad metrics line %d: %s" !lines msg);
       let contains hay needle =
         let nl = String.length needle and hl = String.length hay in
         let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
         go 0
       in
       if contains line "repl.lag" then saw_repl := true
     done
   with End_of_file -> close_in ic);
  Alcotest.(check bool) "metrics non-empty" true (!lines > 0);
  Alcotest.(check bool) "replication lag recorded" true !saw_repl;
  Alcotest.(check bool) (Fmt.str "kills %d >= 10" !kills) true (!kills >= 10)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Promotion does not wait on the certifier                            *)
(* ------------------------------------------------------------------ *)

(* A standby certifying a 27,000-record journal (a 30-cycle's
   transitive closure) is stopped, as a promotion stops it, a tenth of
   the way into the re-run: [stop] must cancel the certification rather
   than join it, and the cut-short run must not count as certified.  A
   receiver asleep in a long [cert_interval] must wake on [stop] too. *)
let test_stop_cancels_certification () =
  let spool = tmp ".cspool" in
  Unix.mkdir spool 0o755;
  let program = cycle_graph 30 in
  write_file
    (Filename.concat spool "t.req")
    (Proto.encode_request
       (Proto.request ~program ~variant:"oblivious" Proto.Chase));
  let o =
    Driver.chase_opts ~variant:Variant.Oblivious ~budget:100_000 ~quiet:true
      ~journal:(Filename.concat spool "t.jnl") ()
  in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Alcotest.(check int) "journaled run terminates" 0
    (Driver.chase o ~file:"t.chase" ~src:program ~out:null ~err:null);
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "the journal certifies" true
    (Receiver.certify_one ~spool_dir:spool "t.jnl" = Some (Ok 27_000));
  let cert_s = Unix.gettimeofday () -. t0 in
  let stop_after ~cert_interval ~delay =
    let socket = tmp ".csock" in
    let r =
      Receiver.start (Receiver.config ~cert_interval ~spool_dir:spool ~socket ())
    in
    Thread.delay delay;
    let t0 = Unix.gettimeofday () in
    Receiver.stop r;
    (Unix.gettimeofday () -. t0, Receiver.stats r)
  in
  let stop_s, stats = stop_after ~cert_interval:0.01 ~delay:(cert_s /. 10.) in
  Alcotest.(check bool)
    (Fmt.str "stop took %.3fs, well under the %.3fs certification" stop_s cert_s)
    true
    (stop_s < cert_s /. 2.);
  Alcotest.(check int) "a cancelled certification is not certified" 0
    (List.assoc "certified" stats);
  Alcotest.(check int) "nor a failure" 0 (List.assoc "cert_fails" stats);
  (* the certifier's sleep: the first sweep certifies, then it sleeps *)
  let stop_s, stats = stop_after ~cert_interval:30. ~delay:(3. *. cert_s) in
  Alcotest.(check int) "certified before the sleep" 1
    (List.assoc "certified" stats);
  Alcotest.(check bool)
    (Fmt.str "stop took %.3fs, not the 30s sleep" stop_s)
    true (stop_s < 5.);
  Array.iter (fun f -> Sys.remove (Filename.concat spool f)) (Sys.readdir spool);
  Unix.rmdir spool

let suite =
  [
    Alcotest.test_case "shipframe-roundtrip" `Quick test_shipframe_roundtrip;
    Alcotest.test_case "shipframe-rejects" `Quick test_shipframe_rejects;
    Alcotest.test_case "backoff-ceiling" `Quick test_backoff_ceiling;
    Alcotest.test_case "receiver-fuzz" `Quick test_receiver_fuzz;
    Alcotest.test_case "shipper-chaos-resync" `Quick test_shipper_chaos_resync;
    Alcotest.test_case "streaming-progress" `Slow test_streaming_progress;
    Alcotest.test_case "failover-soak" `Slow test_failover_soak;
    Alcotest.test_case "receiver-stop-cancels-certification" `Quick
      test_stop_cancels_certification;
  ]

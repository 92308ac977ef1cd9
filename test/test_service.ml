(** Service-layer tests: protocol framing and codecs, the budget pool,
    the single-flight cache, admission/shedding, the durable spool, and
    an in-process daemon exercised end-to-end over a real Unix-domain
    socket — including byte-parity of responses against the shared
    {!Chase.Driver} and boot recovery of spooled requests.  The
    adversarial crash drills live in {!Test_service_chaos}. *)

open Chase

let tmp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_svc_%d_%d%s" (Unix.getpid ()) !n suffix)

(* ------------------------------------------------------------------ *)
(* Proto: codecs                                                       *)

let test_request_roundtrip () =
  let req =
    Proto.request ~id:"42" ~file:"f.chase" ~program:"e(a,b)."
      ~variant:"oblivious" ~budget:123 ~timeout_s:1.5 ~quiet:true
      ~durable:true ~standard:false ~query:"e(X,Y) -> q(X)." Proto.Chase
  in
  match Proto.decode_request (Proto.encode_request req) with
  | Error msg -> Alcotest.fail msg
  | Ok req' ->
    Alcotest.(check bool) "roundtrip" true (req = req')

let test_request_defaults () =
  match Proto.decode_request {|{"op":"ping"}|} with
  | Error msg -> Alcotest.fail msg
  | Ok req ->
    Alcotest.(check string) "id" "0" req.Proto.id;
    Alcotest.(check bool) "standard" true req.Proto.standard;
    Alcotest.(check bool) "durable" false req.Proto.durable

let test_request_errors () =
  let err s =
    match Proto.decode_request s with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "not json" true (err "nonsense");
  Alcotest.(check bool) "not an object" true (err "[1,2]");
  Alcotest.(check bool) "missing op" true (err {|{"id":"1"}|});
  Alcotest.(check bool) "unknown op" true (err {|{"op":"frobnicate"}|})

let test_response_roundtrip () =
  let cases =
    [
      Proto.Ok_response
        { Proto.exit_code = 2; stdout = "a\nb"; stderr = "e\"s"; cached = true };
      Proto.Overloaded 0.25;
      Proto.Bad_frame "eof inside frame payload";
      Proto.Bad_request "unknown op";
      Proto.Server_error "boom";
    ]
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response ~id:"7" resp) with
      | Error msg -> Alcotest.fail msg
      | Ok (id, resp') ->
        Alcotest.(check string) "id" "7" id;
        Alcotest.(check bool) "roundtrip" true (resp = resp'))
    cases

let test_request_key () =
  let base = Proto.request ~program:"p(a)." ~budget:10 Proto.Decide in
  let key = Proto.request_key base in
  (* id and deadline do not partition the cache *)
  Alcotest.(check string) "id excluded" key
    (Proto.request_key { base with Proto.id = "99" });
  Alcotest.(check string) "timeout excluded" key
    (Proto.request_key { base with Proto.timeout_s = Some 9. });
  (* everything result-bearing does *)
  Alcotest.(check bool) "program included" true
    (key <> Proto.request_key { base with Proto.program = "p(b)." });
  Alcotest.(check bool) "op included" true
    (key <> Proto.request_key { base with Proto.op = Proto.Chase });
  Alcotest.(check bool) "budget included" true
    (key <> Proto.request_key { base with Proto.budget = Some 11 });
  Alcotest.(check bool) "quiet included" true
    (key <> Proto.request_key { base with Proto.quiet = true })

(* ------------------------------------------------------------------ *)
(* Proto: frames over a real socketpair                                *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_raw fd s =
  let b = Bytes.of_string s in
  ignore (Unix.write fd b 0 (Bytes.length b))

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      Proto.write_frame a "hello";
      Proto.write_frame a "";
      (match Proto.read_frame b with
      | `Frame s -> Alcotest.(check string) "frame" "hello" s
      | _ -> Alcotest.fail "expected frame");
      match Proto.read_frame b with
      | `Frame s -> Alcotest.(check string) "empty frame" "" s
      | _ -> Alcotest.fail "expected empty frame")

let test_frame_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Proto.read_frame b with
      | `Closed -> ()
      | _ -> Alcotest.fail "expected `Closed at a clean boundary")

let bad_frame raw =
  with_socketpair (fun a b ->
      write_raw a raw;
      Unix.close a;
      match Proto.read_frame b with
      | `Bad _ -> ()
      | `Closed -> Alcotest.fail "got `Closed, expected `Bad"
      | `Frame s -> Alcotest.failf "got frame %S, expected `Bad" s)

let test_frame_bad () =
  bad_frame "x\n";
  (* non-numeric header *)
  bad_frame "\n";
  (* empty header *)
  bad_frame "12";
  (* eof inside header *)
  bad_frame "10\nabc";
  (* eof inside payload *)
  bad_frame "99999999999999999999999\n";
  (* overflowing length *)
  bad_frame "123456789\n"
(* beyond max_len (read with default) — 123 MB declared *)

let test_frame_max_len () =
  with_socketpair (fun a b ->
      write_raw a "6\nabcdef";
      match Proto.read_frame ~max_len:5 b with
      | `Bad _ -> ()
      | _ -> Alcotest.fail "expected `Bad beyond max_len")

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_grants () =
  let p = Pool.create ~per_request_cap:50 ~min_grant:10 ~total:100 () in
  Alcotest.(check (option int)) "capped" (Some 50) (Pool.try_acquire p ~want:80);
  Alcotest.(check (option int)) "rest" (Some 40) (Pool.try_acquire p ~want:40);
  (* 10 left; below nothing, above min_grant: partial grant *)
  Alcotest.(check (option int)) "partial" (Some 10) (Pool.try_acquire p ~want:40);
  Alcotest.(check (option int)) "empty" None (Pool.try_acquire p ~want:40);
  Pool.release p 50;
  Alcotest.(check int) "released" 50 (Pool.available p)

let test_pool_deadline () =
  let p = Pool.create ~min_grant:10 ~total:10 () in
  Alcotest.(check (option int)) "drain" (Some 10) (Pool.try_acquire p ~want:10);
  let t0 = Unix.gettimeofday () in
  let r = Pool.acquire p ~want:10 ~deadline:(t0 +. 0.05) () in
  Alcotest.(check (option int)) "deadline" None r;
  Alcotest.(check bool) "waited" true (Unix.gettimeofday () -. t0 >= 0.04)

let test_pool_backpressure () =
  let p = Pool.create ~min_grant:10 ~total:10 () in
  Alcotest.(check (option int)) "drain" (Some 10) (Pool.try_acquire p ~want:10);
  let got = ref None in
  let th =
    Thread.create
      (fun () -> got := Pool.acquire p ~want:10 ~deadline:(Unix.gettimeofday () +. 5.) ())
      ()
  in
  Thread.delay 0.02;
  Pool.release p 10;
  Thread.join th;
  Alcotest.(check (option int)) "woke with credits" (Some 10) !got

(* ------------------------------------------------------------------ *)
(* Cache: single-flight                                                *)

let result_ n =
  { Proto.exit_code = 0; stdout = Fmt.str "r%d" n; stderr = ""; cached = false }

let test_cache_hit () =
  let c = Cache.create () in
  (match Cache.take c "k" with
  | Cache.Lead -> Cache.publish c "k" (Some (result_ 1)) ~retain:true
  | Cache.Hit _ -> Alcotest.fail "fresh cache cannot hit");
  match Cache.take c "k" with
  | Cache.Hit r ->
    Alcotest.(check string) "bytes" "r1" r.Proto.stdout;
    Alcotest.(check bool) "flagged cached" true r.Proto.cached
  | Cache.Lead -> Alcotest.fail "expected a hit"

let test_cache_no_retain () =
  let c = Cache.create () in
  (match Cache.take c "k" with
  | Cache.Lead -> Cache.publish c "k" (Some (result_ 1)) ~retain:false
  | Cache.Hit _ -> Alcotest.fail "fresh cache cannot hit");
  match Cache.take c "k" with
  | Cache.Lead -> Cache.abort c "k"
  | Cache.Hit _ -> Alcotest.fail "unretained result must not be served"

let test_cache_single_flight () =
  let c = Cache.create () in
  let executions = ref 0 in
  let mu = Mutex.create () in
  let run_one () =
    match Cache.take c "k" with
    | Cache.Hit r -> r.Proto.stdout
    | Cache.Lead ->
      Mutex.lock mu;
      incr executions;
      Mutex.unlock mu;
      Thread.delay 0.05;
      (* everyone else piles up on the flight meanwhile *)
      Cache.publish c "k" (Some (result_ 7)) ~retain:true;
      "r7"
  in
  let threads = List.init 8 (fun _ -> Thread.create run_one ()) in
  let results = List.map (fun th -> Thread.join th; ()) threads in
  ignore results;
  Alcotest.(check int) "one execution" 1 !executions;
  match Cache.take c "k" with
  | Cache.Hit r -> Alcotest.(check string) "shared bytes" "r7" r.Proto.stdout
  | Cache.Lead -> Alcotest.fail "expected the retained result"

let test_cache_abort_promotes () =
  let c = Cache.create () in
  (match Cache.take c "k" with
  | Cache.Lead -> ()
  | Cache.Hit _ -> Alcotest.fail "fresh cache cannot hit");
  let joined = ref None in
  let th =
    Thread.create
      (fun () ->
        match Cache.take c "k" with
        | Cache.Lead ->
          (* promoted after the leader aborted: finish the work *)
          Cache.publish c "k" (Some (result_ 2)) ~retain:true;
          joined := Some "lead"
        | Cache.Hit _ -> joined := Some "hit")
      ()
  in
  Thread.delay 0.02;
  Cache.abort c "k";
  Thread.join th;
  Alcotest.(check (option string)) "promoted to leader" (Some "lead") !joined

let test_cache_eviction () =
  let c = Cache.create ~capacity:2 () in
  List.iter
    (fun k ->
      match Cache.take c k with
      | Cache.Lead -> Cache.publish c k (Some (result_ 0)) ~retain:true
      | Cache.Hit _ -> ())
    [ "a"; "b"; "c" ];
  Alcotest.(check int) "capacity respected" 2 (Cache.retained c);
  (* FIFO: "a" went first *)
  match Cache.take c "a" with
  | Cache.Lead -> Cache.abort c "a"
  | Cache.Hit _ -> Alcotest.fail "oldest entry should have been evicted"

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission_shed () =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let block () =
    Mutex.lock mu;
    while not !release do
      Condition.wait cond mu
    done;
    Mutex.unlock mu
  in
  let a = Admission.create ~queue_cap:1 ~workers:1 () in
  (* one running, one queued, then the queue is full *)
  Alcotest.(check bool) "first accepted" true
    (Admission.submit a ~run:block ~abandon:ignore = `Accepted);
  Thread.delay 0.02;
  Alcotest.(check bool) "second accepted" true
    (Admission.submit a ~run:ignore ~abandon:ignore = `Accepted);
  (match Admission.submit a ~run:ignore ~abandon:ignore with
  | `Shed retry_after ->
    Alcotest.(check bool) "retry_after sane" true
      (retry_after >= 0.05 && retry_after <= 30.)
  | `Accepted -> Alcotest.fail "expected a shed");
  Alcotest.(check int) "shed counted" 1 (Admission.shed_count a);
  Mutex.lock mu;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock mu;
  Admission.stop a;
  Alcotest.(check int) "drained" 2 (Admission.completed a)

let test_admission_abandon () =
  let abandoned = ref 0 in
  let a = Admission.create ~queue_cap:8 ~workers:1 () in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let release = ref false in
  let block () =
    Mutex.lock mu;
    while not !release do
      Condition.wait cond mu
    done;
    Mutex.unlock mu
  in
  ignore (Admission.submit a ~run:block ~abandon:ignore);
  Thread.delay 0.02;
  (* the worker is pinned on [block]: these three can only queue *)
  for _ = 1 to 3 do
    ignore (Admission.submit a ~run:ignore ~abandon:(fun () -> incr abandoned))
  done;
  (* stop ~drain:false clears the queue (firing abandons) before
     joining the worker; release the worker so the join completes *)
  let stopper = Thread.create (fun () -> Admission.stop ~drain:false a) () in
  Thread.delay 0.05;
  Mutex.lock mu;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock mu;
  Thread.join stopper;
  Alcotest.(check int) "queued jobs abandoned" 3 !abandoned

(* ------------------------------------------------------------------ *)
(* Spool                                                               *)

let test_spool () =
  let dir = tmp_name ".spool" in
  let s = Spool.create ~dir in
  Spool.put_request s ~key:"k1" "req1";
  Spool.put_request s ~key:"k2" "req2";
  Spool.put_response s ~key:"k2" "resp2";
  (* stale tmp litter from a simulated kill mid-write *)
  let oc = open_out (Filename.concat dir "k3.req.tmp") in
  output_string oc "torn";
  close_out oc;
  Alcotest.(check (list string)) "pending = acknowledged - answered"
    [ "k1" ] (Spool.pending s);
  Alcotest.(check (option string)) "roundtrip" (Some "req1")
    (Spool.get_request s ~key:"k1");
  Alcotest.(check (option string)) "response" (Some "resp2")
    (Spool.get_response s ~key:"k2");
  Spool.remove s ~key:"k1";
  Spool.remove s ~key:"k2";
  Alcotest.(check (list string)) "removed" [] (Spool.pending s)

(* ------------------------------------------------------------------ *)
(* End-to-end: an in-process daemon on a real socket                   *)

let program = "tc: e(X, Y), e(Y, Z) -> e(X, Z).\ne(a,b). e(b,c). e(c,d).\n"
let rules_only = "tc: e(X, Y), e(Y, Z) -> e(X, Z)."

(* What the CLIs would print: the same Driver call the server makes. *)
let driver_bytes op ~budget ~src ~quiet =
  let out = Buffer.create 256 and err = Buffer.create 256 in
  let fout = Format.formatter_of_buffer out
  and ferr = Format.formatter_of_buffer err in
  let code =
    match op with
    | Proto.Chase ->
      Driver.chase
        (Driver.chase_opts ~budget ~max_atoms:(4 * budget) ~quiet ())
        ~file:"t.chase" ~src ~out:fout ~err:ferr
    | Proto.Decide ->
      Driver.decide
        (Driver.decide_opts ~budget ())
        ~file:"t.chase" ~src ~out:fout ~err:ferr
    | Proto.Lint ->
      Driver.lint_one
        (Driver.lint_opts ~budget ())
        ~file:"t.chase" ~src ~out:fout ~err:ferr
    | _ -> Alcotest.fail "unsupported op in driver_bytes"
  in
  Format.pp_print_flush fout ();
  Format.pp_print_flush ferr ();
  (code, Buffer.contents out, Buffer.contents err)

let with_server ?(workers = 2) ?(queue_cap = 8) ?spool_dir ?metrics
    ?(faults = []) f =
  let socket = tmp_name ".sock" in
  let cfg =
    Server.config ~workers ~queue_cap ?spool_dir ?metrics ~faults
      ~default_timeout:20. ~read_timeout:5. socket
  in
  let server = Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server)
    (fun () -> f server socket)

let call_ok socket req =
  match Client.call_retry ~attempts:5 ~base_delay:0.02 ~socket req with
  | Ok (Proto.Ok_response r) -> r
  | Ok resp -> Alcotest.failf "unexpected response: %a" Proto.pp_response resp
  | Error failure -> Alcotest.failf "call failed: %a" Client.pp_failure failure

let test_server_ping () =
  with_server (fun _ socket ->
      let r = call_ok socket (Proto.request Proto.Ping) in
      (* one JSON line identifying the server, not a bare ack *)
      let module Jsonv = Chase_obs.Jsonv in
      let v =
        match Jsonv.of_string (String.trim r.Proto.stdout) with
        | Ok v -> v
        | Error m -> Alcotest.failf "ping is not JSON: %s" m
      in
      Alcotest.(check (option bool)) "pong" (Some true)
        (Option.bind (Jsonv.member "pong" v) (function
          | Jsonv.Bool b -> Some b
          | _ -> None));
      List.iter
        (fun field ->
          if Jsonv.member field v = None then
            Alcotest.failf "ping lacks %S" field)
        [ "role"; "build"; "uptime_s"; "pid"; "socket" ];
      Alcotest.(check int) "exit" 0 r.Proto.exit_code)

let test_server_telemetry () =
  with_server (fun _ socket ->
      (* serve one request first so the registry has live counters *)
      ignore
        (call_ok socket
           (Proto.request ~file:"t.chase" ~program ~budget:10_000 Proto.Chase));
      let module Jsonv = Chase_obs.Jsonv in
      (* default rendering: one JSON document *)
      let r = call_ok socket (Proto.request Proto.Telemetry) in
      let v =
        match Jsonv.of_string (String.trim r.Proto.stdout) with
        | Ok v -> v
        | Error m -> Alcotest.failf "telemetry is not JSON: %s" m
      in
      let str k = Option.bind (Jsonv.member k v) Jsonv.to_string_opt in
      Alcotest.(check (option string)) "schema" (Some "chase-telemetry/1")
        (str "schema");
      Alcotest.(check (option string)) "role" (Some "primary") (str "role");
      (match Jsonv.member "counters" v with
      | Some (Jsonv.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "telemetry has no counters");
      (* variant "prom": Prometheus text exposition of the same registry *)
      let p =
        call_ok socket (Proto.request ~variant:"prom" Proto.Telemetry)
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Fmt.str "prom mentions %s" needle) true
            (let n = String.length needle in
             let hay = p.Proto.stdout in
             let rec go i =
               i + n <= String.length hay
               && (String.sub hay i n = needle || go (i + 1))
             in
             go 0))
        [
          "# TYPE chase_build_info gauge";
          "chase_uptime_seconds";
          "chase_svc_requests";
        ])

(* One formatter under every progress surface: the machine frame is
   derived from the same [Watchdog.fields] list the human line prints,
   so the two cannot drift field-by-field. *)
let test_progress_field_parity () =
  let s =
    {
      Chase_engine.Watchdog.step = 1536;
      elapsed = 2.25;
      steps_per_sec = 682.7;
      facts = 4096;
      queue_length = 17;
      nulls = 96;
      max_depth = 5;
      null_rate = 0.0625;
    }
  in
  let fields = Chase_engine.Watchdog.fields s in
  let f name = List.assoc name fields in
  let p = Proto.progress_of_snapshot s in
  Alcotest.(check int) "step" (int_of_float (f "step")) p.Proto.step;
  Alcotest.(check int) "atoms" (int_of_float (f "facts")) p.Proto.atoms;
  Alcotest.(check int) "nulls" (int_of_float (f "nulls")) p.Proto.nulls;
  Alcotest.(check (float 0.)) "elapsed" (f "elapsed") p.Proto.elapsed;
  let human = Fmt.str "%a" Chase_engine.Watchdog.pp_snapshot s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "human line shows %s" needle) true
        (let n = String.length needle in
         let rec go i =
           i + n <= String.length human
           && (String.sub human i n = needle || go (i + 1))
         in
         go 0))
    [ "step 1536"; "facts 4096"; "queue 17"; "nulls 96"; "depth 5" ]

let test_server_parity () =
  with_server (fun _ socket ->
      List.iter
        (fun (op, src, quiet) ->
          let budget = 10_000 in
          let code, out, err = driver_bytes op ~budget ~src ~quiet in
          let r =
            call_ok socket
              (Proto.request ~file:"t.chase" ~program:src ~budget ~quiet op)
          in
          let name = Proto.op_to_string op in
          Alcotest.(check int) (name ^ ": exit") code r.Proto.exit_code;
          Alcotest.(check string) (name ^ ": stdout") out r.Proto.stdout;
          Alcotest.(check string) (name ^ ": stderr") err r.Proto.stderr)
        [
          (Proto.Chase, program, false);
          (Proto.Chase, program, true);
          (Proto.Decide, rules_only, false);
          (Proto.Lint, program, false);
          (Proto.Chase, "nonsense", false);
          (* parse error: exit 1, message on stderr *)
        ])

let test_server_query () =
  with_server (fun _ socket ->
      let r =
        call_ok socket
          (Proto.request ~file:"t.chase" ~program ~budget:10_000
             ~query:"e(X, Y), e(Y, Z) -> ans(X, Z)." Proto.Query)
      in
      Alcotest.(check int) "exit" 0 r.Proto.exit_code;
      Alcotest.(check string) "certain answers"
        "ans(a, c).\nans(a, d).\nans(b, d).\n" r.Proto.stdout)

let test_server_cache () =
  with_server (fun _ socket ->
      let req =
        Proto.request ~file:"t.chase" ~program ~budget:10_000 Proto.Chase
      in
      let r1 = call_ok socket req in
      Alcotest.(check bool) "first is fresh" false r1.Proto.cached;
      let r2 = call_ok socket { req with Proto.id = "2" } in
      Alcotest.(check bool) "second is cached" true r2.Proto.cached;
      Alcotest.(check string) "identical bytes" r1.Proto.stdout r2.Proto.stdout)

let test_server_bad_frame () =
  with_server (fun _ socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      write_raw fd "not a frame\n";
      (match Proto.read_frame fd with
      | `Frame payload -> (
        match Proto.decode_response payload with
        | Ok (_, Proto.Bad_frame _) -> ()
        | other ->
          Alcotest.failf "expected bad-frame, got %a"
            Fmt.(result ~ok:(pair string Proto.pp_response) ~error:string)
            other)
      | _ -> Alcotest.fail "expected a bad-frame response");
      (* the server must then drop the desynchronized connection *)
      (match Proto.read_frame fd with
      | `Closed | `Bad _ -> ()
      | `Frame _ -> Alcotest.fail "connection should be closed");
      Unix.close fd)

let test_server_bad_request () =
  with_server (fun _ socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      Proto.write_frame fd {|{"op":"frobnicate","id":"9"}|};
      (match Proto.read_frame fd with
      | `Frame payload -> (
        match Proto.decode_response payload with
        | Ok (_, Proto.Bad_request _) -> ()
        | _ -> Alcotest.fail "expected bad-request")
      | _ -> Alcotest.fail "expected a response frame");
      (* a bad request is not a framing error: the connection lives *)
      Proto.write_frame fd (Proto.encode_request (Proto.request Proto.Ping));
      (match Proto.read_frame fd with
      | `Frame payload -> (
        match Proto.decode_response payload with
        | Ok (_, Proto.Ok_response r) ->
          Alcotest.(check bool) "still serving" true
            (String.length r.Proto.stdout > 12
            && String.sub r.Proto.stdout 0 13 = {|{"pong":true,|})
        | _ -> Alcotest.fail "expected pong")
      | _ -> Alcotest.fail "expected a pong frame");
      Unix.close fd)

let test_server_overload () =
  (* one worker, queue of one: concurrent distinct requests must shed
     with a structured retry_after, never hang or drop silently *)
  with_server ~workers:1 ~queue_cap:1 (fun _ socket ->
      let divergent i =
        Fmt.str "g%d: e(X, Y) -> e(Y, W).\ne(a,b).\n" i
      in
      let outcomes = Array.make 6 `None in
      let threads =
        List.init 6 (fun i ->
            Thread.create
              (fun () ->
                let req =
                  Proto.request ~id:(string_of_int i) ~file:"t.chase"
                    ~program:(divergent i) ~budget:60_000 ~quiet:true
                    Proto.Chase
                in
                match Client.connect ~socket () with
                | Error _ -> ()
                | Ok conn ->
                  (match Client.call conn req with
                  | Ok (Proto.Ok_response _) -> outcomes.(i) <- `Ok
                  | Ok (Proto.Overloaded ra) -> outcomes.(i) <- `Shed ra
                  | _ -> ());
                  Client.close conn)
              ())
      in
      List.iter Thread.join threads;
      let shed =
        Array.to_list outcomes
        |> List.filter (function `Shed _ -> true | _ -> false)
        |> List.length
      in
      Alcotest.(check bool) "at least one structured shed" true (shed >= 1);
      Array.iter
        (function
          | `Shed ra ->
            Alcotest.(check bool) "retry_after positive" true (ra > 0.)
          | _ -> ())
        outcomes)

let test_server_boot_recovery () =
  let spool_dir = tmp_name ".spool" in
  let socket = tmp_name ".sock" in
  (* acknowledge a durable request on disk with no daemon running at
     all — as a kill between fsync and run would leave things *)
  let s = Spool.create ~dir:spool_dir in
  let req =
    Proto.request ~file:"t.chase" ~program ~budget:10_000 ~quiet:true
      ~durable:true Proto.Chase
  in
  let key = Proto.request_key req in
  Spool.put_request s ~key (Proto.encode_request req);
  Alcotest.(check (list string)) "acknowledged, unanswered" [ key ]
    (Spool.pending s);
  (* boot: recovery must complete it without any client, and without
     writing or shipping the request again — only its response *)
  let durable = ref [] in
  let on_durable what ~key ~trace:_ _ =
    durable := (what, key) :: !durable
  in
  let server = Server.start (Server.config ~spool_dir ~on_durable socket) in
  let rec await n =
    if Spool.has_response s ~key then ()
    else if n = 0 then Alcotest.fail "boot recovery never answered"
    else begin
      Thread.delay 0.05;
      await (n - 1)
    end
  in
  await 100;
  (* the hook runs just after the response reaches the spool *)
  let rec settle n =
    if !durable = [] && n > 0 then begin
      Thread.delay 0.01;
      settle (n - 1)
    end
  in
  settle 100;
  Alcotest.(check bool) "recovery ships the response, not the request" true
    (!durable = [ (`Resp, key) ]);
  (* and a client retry of the same request is served the spooled bytes *)
  let r = call_ok socket req in
  Alcotest.(check bool) "served from spool" true r.Proto.cached;
  let code, out, err = driver_bytes Proto.Chase ~budget:10_000 ~src:program ~quiet:true in
  Alcotest.(check int) "exit parity" code r.Proto.exit_code;
  Alcotest.(check string) "stdout parity" out r.Proto.stdout;
  Alcotest.(check string) "stderr parity" err r.Proto.stderr;
  Server.stop server;
  Server.wait server

let test_client_gives_up () =
  let socket = tmp_name ".sock" in
  (* nobody listening: the retry loop must fail structurally, fast *)
  let retries = ref 0 in
  match
    Client.call_retry ~attempts:3 ~base_delay:0.005
      ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retries)
      ~socket (Proto.request Proto.Ping)
  with
  | Error (Client.Gave_up _) ->
    Alcotest.(check int) "every attempt retried" 3 !retries
  | Ok _ | Error (Client.Rejected _) ->
    Alcotest.fail "expected Gave_up against a dead socket"

let test_server_stats_op () =
  with_server (fun server socket ->
      ignore (call_ok socket (Proto.request Proto.Ping));
      let r = call_ok socket (Proto.request Proto.Stats) in
      match Jsonv.of_string r.Proto.stdout with
      | Error msg -> Alcotest.fail msg
      | Ok v ->
        Alcotest.(check bool) "accepts present" true
          (Jsonv.member "accepts" v <> None);
        Alcotest.(check bool) "counters match API" true
          (List.mem_assoc "responses" (Server.stats server)))

let suite =
  [
    Alcotest.test_case "proto: request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "proto: request defaults" `Quick test_request_defaults;
    Alcotest.test_case "proto: request errors" `Quick test_request_errors;
    Alcotest.test_case "proto: response roundtrip" `Quick test_response_roundtrip;
    Alcotest.test_case "proto: idempotency key" `Quick test_request_key;
    Alcotest.test_case "proto: frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "proto: clean close" `Quick test_frame_closed;
    Alcotest.test_case "proto: bad frames" `Quick test_frame_bad;
    Alcotest.test_case "proto: frame size limit" `Quick test_frame_max_len;
    Alcotest.test_case "pool: grants and caps" `Quick test_pool_grants;
    Alcotest.test_case "pool: deadline" `Quick test_pool_deadline;
    Alcotest.test_case "pool: backpressure wakes" `Quick test_pool_backpressure;
    Alcotest.test_case "cache: hit" `Quick test_cache_hit;
    Alcotest.test_case "cache: no retain" `Quick test_cache_no_retain;
    Alcotest.test_case "cache: single flight" `Quick test_cache_single_flight;
    Alcotest.test_case "cache: abort promotes" `Quick test_cache_abort_promotes;
    Alcotest.test_case "cache: FIFO eviction" `Quick test_cache_eviction;
    Alcotest.test_case "admission: shed with retry_after" `Quick
      test_admission_shed;
    Alcotest.test_case "admission: abandon on kill" `Quick
      test_admission_abandon;
    Alcotest.test_case "spool: pending and atomicity" `Quick test_spool;
    Alcotest.test_case "server: ping" `Quick test_server_ping;
    Alcotest.test_case "server: telemetry op (JSON + prom)" `Quick
      test_server_telemetry;
    Alcotest.test_case "proto: progress/watchdog field parity" `Quick
      test_progress_field_parity;
    Alcotest.test_case "server: CLI byte parity" `Quick test_server_parity;
    Alcotest.test_case "server: query" `Quick test_server_query;
    Alcotest.test_case "server: cache + single flight" `Quick
      test_server_cache;
    Alcotest.test_case "server: bad frame drops connection" `Quick
      test_server_bad_frame;
    Alcotest.test_case "server: bad request keeps connection" `Quick
      test_server_bad_request;
    Alcotest.test_case "server: overload sheds structurally" `Quick
      test_server_overload;
    Alcotest.test_case "server: boot recovery" `Quick
      test_server_boot_recovery;
    Alcotest.test_case "client: gives up structurally" `Quick
      test_client_gives_up;
    Alcotest.test_case "server: stats op" `Quick test_server_stats_op;
  ]

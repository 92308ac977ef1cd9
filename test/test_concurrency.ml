(** Concurrent chases on systhreads: each is the same run as a solo one.

    The chase service answers requests on worker systhreads of a single
    domain.  Those threads share the matcher's global counters, the
    matcher and pruning switches and every module-level table of the
    engine.  The doctrine under test: a chase run on a thread, next to
    others, is the {e same run} as the run alone — applied trigger
    sequence, null stamps, journal bytes, per-rule probe counts,
    exhaustion verdicts and decision verdicts.  The runs' trigger hooks
    pass a turnstile, so the threads take their chase steps in strict
    rotation and every run is interleaved with the others whatever the
    scheduler does.  Results are checked on the calling thread. *)

open Chase
open Test_util

(* Run [f 0 (step 0) .. f (n-1) (step (n-1))] on [n] threads and return
   the results in thread order.  [step k] is thread [k]'s turn at the
   turnstile: it blocks until the turn comes round to [k], then hands it to
   the next thread still running, so threads that call it after every
   chase step take their steps in strict rotation.  A thread leaves the
   rotation when [f] returns.  A worker's exception is re-raised here once
   every thread has been joined. *)
let concurrently n f =
  let m = Mutex.create () and turned = Condition.create () in
  let turn = ref 0 and live = Array.make n true in
  let pass_from k =
    let rec next i =
      if i = n then () else
        let j = (k + i) mod n in
        if live.(j) then turn := j else next (i + 1)
    in
    next 1;
    Condition.broadcast turned
  in
  let step k () =
    Mutex.lock m;
    while !turn <> k do Condition.wait turned m done;
    pass_from k;
    Mutex.unlock m
  in
  let leave k =
    Mutex.lock m;
    live.(k) <- false;
    if !turn = k then pass_from k;
    Mutex.unlock m
  in
  let out = Array.make n None in
  let worker k =
    out.(k) <-
      Some
        (Fun.protect
           ~finally:(fun () -> leave k)
           (fun () -> try Ok (f k (step k)) with e -> Error e))
  in
  List.iter Thread.join (List.init n (Thread.create worker));
  List.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> Alcotest.fail "a worker thread produced no result")
    (Array.to_list out)

(* ------------------------------------------------------------------ *)
(* The applied sequence                                                *)
(* ------------------------------------------------------------------ *)

(* The applied sequence, captured literally through [on_trigger]: step,
   rule index, depth, invented nulls, homomorphism, added facts.  Two
   runs are the same run when these sequences and the result counters
   agree — strictly stronger than comparing final instances.  The hook
   ends at [step], a thread's turn at the turnstile. *)
let trace ?limits ?(step = ignore) ~variant ~budget rules db =
  let log = ref [] in
  let on_trigger ~step:stamp ~rule_index ~depth ~created_nulls _rule sub
      added =
    log :=
      (stamp, rule_index, depth, created_nulls, Subst.to_list sub, added)
      :: !log;
    step ()
  in
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  let r = Engine.run ~config:{ Engine.variant; limits } ~on_trigger rules db in
  (r, List.rev !log)

let check_same_run ctx ((r1 : Engine.result), log1) ((r2 : Engine.result), log2)
    =
  Alcotest.(check int) (ctx ^ ": sequence length") (List.length log1)
    (List.length log2);
  List.iteri
    (fun k ((s1, i1, d1, n1, h1, a1), (s2, i2, d2, n2, h2, a2)) ->
      let step what = Fmt.str "%s: step %d %s" ctx k what in
      Alcotest.(check int) (step "stamp") s1 s2;
      Alcotest.(check int) (step "rule") i1 i2;
      Alcotest.(check int) (step "depth") d1 d2;
      Alcotest.(check (list int)) (step "nulls") n1 n2;
      Alcotest.(check bool)
        (step "homomorphism") true
        (List.length h1 = List.length h2
        && List.for_all2
             (fun (v1, t1) (v2, t2) -> v1 = v2 && Term.equal t1 t2)
             h1 h2);
      Alcotest.(check (list atom_testable)) (step "added facts") a1 a2)
    (List.combine log1 log2);
  Alcotest.(check (list atom_testable))
    (ctx ^ ": final instance")
    (Instance.to_sorted_list r1.Engine.instance)
    (Instance.to_sorted_list r2.Engine.instance);
  Alcotest.(check int) (ctx ^ ": nulls") r1.Engine.nulls_created
    r2.Engine.nulls_created;
  Alcotest.(check int) (ctx ^ ": triggers") r1.Engine.triggers_applied
    r2.Engine.triggers_applied;
  Alcotest.(check bool)
    (ctx ^ ": status") true
    (Engine.exhausted r1 = Engine.exhausted r2)

let guarded_set seed =
  let rules = Random_tgds.guarded ~seed () in
  (rules, Instance.to_list (Critical.of_rules ~standard:false rules))

let threads = 3

(* Each seed's runs overlap with each other: [threads] copies of the same
   chase, in rotation, every one equal to the solo run. *)
let threads_equal_solo variant () =
  for seed = 0 to 5 do
    let rules, db = guarded_set seed in
    let solo = trace ~variant ~budget:400 rules db in
    List.iteri
      (fun k run ->
        check_same_run
          (Fmt.str "guarded seed %d %a thread %d" seed Variant.pp variant k)
          solo run)
      (concurrently threads (fun _ step ->
           trace ~step ~variant ~budget:400 rules db))
  done

(* No state survives a run: the same chase, run again in the same
   process, is the same run. *)
let reruns_identical () =
  for seed = 0 to 11 do
    let rules, db = guarded_set seed in
    List.iter
      (fun variant ->
        let first = trace ~variant ~budget:400 rules db in
        check_same_run
          (Fmt.str "guarded seed %d %a rerun" seed Variant.pp variant)
          first
          (trace ~variant ~budget:400 rules db))
      Variant.all
  done

(* The naive reference matcher on concurrent threads still reproduces the
   planned solo run, null stamps and all. *)
let naive_threads_equal_planned_solo () =
  for seed = 0 to 3 do
    let rules, db = guarded_set seed in
    List.iter
      (fun variant ->
        let planned = trace ~variant ~budget:300 rules db in
        let naive =
          with_matcher Hom.Naive (fun () ->
              concurrently threads (fun _ step ->
                  trace ~step ~variant ~budget:300 rules db))
        in
        List.iteri
          (fun k run ->
            check_same_run
              (Fmt.str "guarded seed %d %a naive thread %d" seed Variant.pp
                 variant k)
              planned run)
          naive)
      Variant.all
  done

(* ------------------------------------------------------------------ *)
(* Journals written by concurrent runs                                 *)
(* ------------------------------------------------------------------ *)

let tmp_journal =
  let n = ref 0 in
  let m = Mutex.create () in
  fun () ->
    Mutex.lock m;
    incr n;
    let k = !n in
    Mutex.unlock m;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_conc_%d_%d.jnl" (Unix.getpid ()) k)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Session.snapshot_path path ]

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let transitive = "e(X, Y) -> e(Y, Z).  e(X, Y), e(Y, Z) -> e(X, Z)."

let journal_config =
  { Engine.variant = Variant.Oblivious; limits = Limits.of_budget 500 }

let run_journaled ?(step = ignore) path rules db =
  let session =
    Session.start ~journal:path
      ~snapshot:(Session.snapshot_path path)
      ~variant:Variant.Oblivious ~rules ~db ()
  in
  let on_trigger ~step:stamp ~rule_index ~depth ~created_nulls rule sub
      added =
    Session.on_trigger session ~step:stamp ~rule_index ~depth ~created_nulls
      rule sub added;
    step ()
  in
  let r = Engine.run ~config:journal_config ~on_trigger rules db in
  Session.finish session;
  r

(* A solo journal and [threads] journals written at once, one per thread;
   [f] gets the solo path and result and the threads' paths and results. *)
let with_journals f =
  let rules = parse transitive in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let solo_path = tmp_journal () in
  let paths = List.init threads (fun _ -> tmp_journal ()) in
  Fun.protect
    ~finally:(fun () -> List.iter cleanup (solo_path :: paths))
    (fun () ->
      let solo = run_journaled solo_path rules db in
      let runs =
        concurrently threads (fun k step ->
            run_journaled ~step (List.nth paths k) rules db)
      in
      f ~rules ~db (solo_path, solo) (List.combine paths runs))

let journal_bytes_identical () =
  with_journals (fun ~rules:_ ~db:_ (solo_path, solo) runs ->
      let bytes = read_bytes solo_path in
      Alcotest.(check bool) "the solo journal is not empty" true
        (String.length bytes > 0);
      List.iteri
        (fun k (path, (r : Engine.result)) ->
          Alcotest.(check int)
            (Fmt.str "thread %d: same steps" k)
            solo.Engine.triggers_applied r.Engine.triggers_applied;
          Alcotest.(check string)
            (Fmt.str "thread %d: journal bytes = solo journal bytes" k)
            bytes (read_bytes path))
        runs)

(* A journal written on a worker thread resumes, on the calling thread,
   to the solo run's output, byte for byte: [chase --resume] on each
   thread's journal prints what [chase] prints. *)
let journal_resumes_to_solo () =
  let chase_stdout ?resume () =
    let ob = Buffer.create 4096 in
    let out = Format.formatter_of_buffer ob in
    let o =
      Driver.chase_opts ~variant:Variant.Oblivious ~budget:500
        ~max_atoms:2000 ~critical:true ?resume ()
    in
    let code =
      Driver.chase o ~file:"transitive.chase" ~src:transitive ~out
        ~err:(Format.formatter_of_buffer (Buffer.create 256))
    in
    Format.pp_print_flush out ();
    (code, Buffer.contents ob)
  in
  with_journals (fun ~rules:_ ~db:_ _ runs ->
      let solo = chase_stdout () in
      List.iteri
        (fun k (path, _) ->
          Alcotest.(check (pair int string))
            (Fmt.str "thread %d: resumed stdout = solo stdout" k)
            solo
            (chase_stdout ~resume:path ()))
        runs)

(* ------------------------------------------------------------------ *)
(* Governance                                                          *)
(* ------------------------------------------------------------------ *)

(* Exhaustion injected into some threads' runs degrades exactly those
   runs, each to a sound prefix, and leaves the plain run beside them the
   same run as alone. *)
let injected_exhaustion_is_local () =
  let rules = parse transitive in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let injections =
    [ Faults.Cancel "concurrency-test"; Faults.Expire_deadline;
      Faults.Trip_trigger_cap ]
  in
  let solo = trace ~variant:Variant.Oblivious ~budget:300 rules db in
  let plans = List.map (fun i -> Faults.create [ (20, i) ]) injections in
  let results =
    concurrently
      (List.length injections + 1)
      (fun k step ->
        match List.nth_opt plans k with
        | None -> trace ~step ~variant:Variant.Oblivious ~budget:300 rules db
        | Some plan ->
          let limits =
            Faults.arm plan
              (Limits.make ~max_triggers:100_000 ~timeout:60.
                 ~cancel:(Limits.Cancel.create ()) ())
          in
          trace ~step ~limits ~variant:Variant.Oblivious ~budget:300 rules db)
  in
  List.iteri
    (fun k run ->
      let r = fst run in
      match (List.nth_opt injections k, List.nth_opt plans k) with
      | Some injection, Some plan ->
        let ctx s = Fmt.str "%a: %s" Faults.pp_injection injection s in
        Alcotest.(check bool) (ctx "structured exhaustion") true (exhausted r);
        Alcotest.(check (list int))
          (ctx "fired at step 20")
          [ 20 ]
          (List.map fst (Faults.fired plan));
        Alcotest.(check bool)
          (ctx "sound prefix") true
          (Result.is_ok (Engine.check_provenance r ~db))
      | _ -> check_same_run "plain run beside the injected ones" solo run)
    results

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

(* The matcher's counters are process-wide: a run's [chase.hom.*],
   [chase.plan.*] and [chase.rule.probes] are read as differences of them
   around the run or its events, so a run on a thread also counts the
   matching its neighbours did meanwhile.  Their totals across threads are
   pinned in the engine suite; every other counter belongs to its run. *)
let process_wide key =
  List.exists
    (fun prefix -> String.starts_with ~prefix key)
    [ "chase.hom."; "chase.plan."; "chase.rule.probes/" ]

let counters m =
  List.filter_map
    (fun (name, label, entry) ->
      match entry with
      | Metrics.E_counter v -> Some (name ^ "/" ^ label, v)
      | Metrics.E_gauge _ | Metrics.E_hist _ -> None)
    (Metrics.dump m)

let observed_run ?(step = ignore) rules db =
  let obs = Obs.create [] in
  let on_trigger ~step:_ ~rule_index:_ ~depth:_ ~created_nulls:_ _ _ _ =
    step ()
  in
  ignore
    (Engine.run
       ~config:
         { Engine.variant = Variant.Oblivious; limits = Limits.of_budget 300 }
       ~obs ~on_trigger rules db);
  Obs.metrics obs

(* A thread's per-rule firing and null profile is its own run's. *)
let per_rule_profile_exact () =
  let rules, db = guarded_set 11 in
  let profile m =
    List.concat_map
      (fun name ->
        List.map
          (fun label -> (name ^ "/" ^ label, Metrics.counter_value m ~label name))
          (Metrics.labels_of m name))
      [ "chase.rule.firings"; "chase.rule.nulls" ]
  in
  let solo = profile (observed_run rules db) in
  Alcotest.(check bool)
    "solo profile attributes firings" true
    (List.exists (fun (_, v) -> v > 0) solo);
  List.iteri
    (fun k m ->
      Alcotest.(check (list (pair string int)))
        (Fmt.str "thread %d: per-rule firings and nulls" k)
        solo (profile m))
    (concurrently threads (fun _ step -> observed_run ~step rules db))

(* Every counter a run owns is the solo run's value; a process-wide one
   holds at least the run's own matching; and the removed multicore plane
   records nothing under its old [chase.parallel.*] names. *)
let counters_equal_solo () =
  let rules = parse transitive in
  let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
  let solo = counters (observed_run rules db) in
  let owned = List.filter (fun (key, _) -> not (process_wide key)) in
  Alcotest.(check bool) "solo run records counters" true (owned solo <> []);
  Alcotest.(check (list string))
    "no chase.parallel metric" []
    (List.filter
       (fun (key, _) -> String.starts_with ~prefix:"chase.parallel" key)
       solo
    |> List.map fst);
  List.iteri
    (fun k m ->
      let run = counters m in
      Alcotest.(check (list (pair string int)))
        (Fmt.str "thread %d: run-owned counters" k)
        (owned solo) (owned run);
      List.iter
        (fun (key, v) ->
          if process_wide key then
            Alcotest.(check bool)
              (Fmt.str "thread %d: %s holds the run's own count" k key)
              true
              (List.assoc_opt key run >= Some v))
        solo)
    (concurrently threads (fun _ step -> observed_run ~step rules db))

(* ------------------------------------------------------------------ *)
(* Decisions                                                           *)
(* ------------------------------------------------------------------ *)

(* [Decide] on worker threads, each thread taking the sets in its own
   order, gives every set its solo verdict.  [Decide] has no trigger hook,
   so these runs overlap only as far as the scheduler preempts them. *)
let decide_verdicts_equal_solo () =
  let sets =
    List.concat_map
      (fun seed ->
        [ Random_tgds.guarded ~seed (); Random_tgds.linear ~seed () ])
      [ 0; 1; 2; 3 ]
  in
  let verdict rules =
    Verdict.answer_to_string
      (Verdict.answer
         (Decide.check ~standard:false ~budget:2_000
            ~variant:Variant.Semi_oblivious rules))
  in
  let solo = List.map verdict sets in
  let n = List.length sets in
  let per_thread =
    concurrently threads (fun k _ ->
        (* thread k starts at set k, so different sets overlap *)
        let order = List.init n (fun i -> (i + k) mod n) in
        List.map (fun i -> (i, verdict (List.nth sets i))) order)
  in
  List.iteri
    (fun k answers ->
      List.iter
        (fun (i, v) ->
          Alcotest.(check string)
            (Fmt.str "thread %d: set %d verdict" k i)
            (List.nth solo i) v)
        answers)
    per_thread

let suite =
  List.map
    (fun variant ->
      Alcotest.test_case
        (Fmt.str "threads: guarded runs = solo run (%a)" Variant.pp variant)
        `Quick (threads_equal_solo variant))
    Variant.all
  @ [
      Alcotest.test_case "rerun: guarded runs identical (all variants)" `Quick
        reruns_identical;
      Alcotest.test_case "threads: naive matcher = planned solo run" `Quick
        naive_threads_equal_planned_solo;
      Alcotest.test_case "journal: thread journal bytes = solo journal bytes"
        `Quick journal_bytes_identical;
      Alcotest.test_case "journal: thread journals resume to the solo result"
        `Quick journal_resumes_to_solo;
      Alcotest.test_case "governance: injected exhaustion stays on its thread"
        `Quick injected_exhaustion_is_local;
      Alcotest.test_case "obs: per-rule firings and nulls on threads = solo"
        `Quick per_rule_profile_exact;
      Alcotest.test_case "obs: run counters on threads = solo, no parallel block"
        `Quick counters_equal_solo;
      Alcotest.test_case "decide: verdicts on threads = solo verdicts" `Quick
        decide_verdicts_equal_solo;
    ]

(** Durability subsystem tests: codec roundtrips, journal framing and
    torn-tail tolerance, atomic snapshots, and the acceptance-critical
    crash-determinism property — a journaled run killed at a record
    (through the real write path, via fault injection) and resumed
    prints exactly what the uninterrupted run prints and leaves exactly
    its journal.  A resume re-runs the chase from step zero and checks
    every journaled step, so a tampered journal is refused. *)

open Chase
open Test_util

(* ------------------------------------------------------------------ *)
(* Workload: a terminating oblivious chase with 165 trigger
   applications (> 50) and 45 invented nulls over a 9-edge path. *)

let rules () =
  parse "tc: e(X, Y), e(Y, Z) -> e(X, Z).  mk: e(X, Y) -> r(X, W)."

let db () =
  List.init 9 (fun i -> fact (Fmt.str "e(a%d, a%d)" i (i + 1)))

let config variant = { Engine.variant; limits = Limits.of_budget 10_000 }

let tmp_journal =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_test_%d_%d.jnl" (Unix.getpid ()) !n)

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Session.snapshot_path path ]

(** Run the chase while journaling to [path]; a [fault] simulates a
    crash through the real write path ([Faults.Crash] escapes). *)
let run_journaled ?snapshot_every ?fsync_every ?fault
    ?(variant = Variant.Oblivious) path rules db =
  let session =
    Session.start ~journal:path
      ~snapshot:(Session.snapshot_path path)
      ?snapshot_every ?fsync_every ?fault ~variant ~rules ~db ()
  in
  let result =
    Engine.run ~config:(config variant)
      ~on_trigger:(Session.on_trigger session)
      rules db
  in
  Session.finish session;
  result

let recover_exn ?snapshot ~variant path rules db =
  match Recovery.recover ?snapshot ~journal:path ~variant ~rules ~db () with
  | Ok report -> report
  | Error msg -> Alcotest.fail ("recovery failed: " ^ msg)

(** Resume from [report]: a re-run from step zero whose session checks
    the journaled steps and appends the rest to [path]. *)
let resume_run ?(variant = Variant.Oblivious) path report rules db =
  let session = Session.continue_ ~journal:path ~fsync_every:1 report in
  match
    Session.run session (fun () ->
        Engine.run ~config:(config variant)
          ~on_trigger:(Session.on_trigger session)
          rules db)
  with
  | Ok result -> result
  | Error msg -> Alcotest.fail ("resume rejected: " ^ msg)

(** A resumed run is the uninterrupted run: same status, same facts,
    nulls included, and the same counters. *)
let check_same_run msg (a : Engine.result) (b : Engine.result) =
  let terminated (r : Engine.result) = r.Engine.status = Engine.Terminated in
  Alcotest.(check bool) (msg ^ ": same status") (terminated a) (terminated b);
  Alcotest.(check (list atom_testable))
    (msg ^ ": same facts") (sorted_facts a) (sorted_facts b);
  Alcotest.(check (list int))
    (msg ^ ": same counters")
    [ a.Engine.triggers_applied; a.Engine.triggers_skipped;
      a.Engine.atoms_created; a.Engine.nulls_created; a.Engine.max_depth ]
    [ b.Engine.triggers_applied; b.Engine.triggers_skipped;
      b.Engine.atoms_created; b.Engine.nulls_created; b.Engine.max_depth ]

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_crc32 () =
  (* the classic IEEE 802.3 check vector *)
  Alcotest.(check int) "crc32(123456789)" 0xcbf43926
    (Codec.Crc32.digest "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Codec.Crc32.digest "");
  Alcotest.(check int) "crc32 substring" (Codec.Crc32.digest "bc")
    (Codec.Crc32.digest ~pos:1 ~len:2 "abcd")

let term_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Term.Const (Fmt.str "c%d" i)) (int_range 0 30);
        map (fun i -> Term.Var (Fmt.str "X%d" i)) (int_range 0 30);
        map (fun i -> Term.Null i) (int_range 1 100_000);
      ])

let atom_gen =
  QCheck.Gen.(
    map2
      (fun p args -> Atom.of_list (Fmt.str "p%d" p) args)
      (int_range 0 10)
      (list_size (int_range 0 4) term_gen))

let step_gen =
  QCheck.Gen.(
    map
      (fun (step, idx, bindings, depth, nulls, atoms) ->
        {
          Codec.step = step;
          rule_index = idx;
          rule_name = Fmt.str "r%d" idx;
          hom =
            List.fold_left
              (fun s (x, t) ->
                match Subst.bind s x t with Some s' -> s' | None -> s)
              Subst.empty bindings;
          depth;
          created_nulls = List.sort_uniq compare nulls;
          created_atoms = atoms;
        })
      (tup6 (int_range 1 1_000_000) (int_range 0 50)
         (list_size (int_range 0 6)
            (map2 (fun i t -> (Fmt.str "V%d" i, t)) (int_range 0 20) term_gen))
         (int_range 0 64)
         (list_size (int_range 0 4) (int_range 1 100_000))
         (list_size (int_range 0 4) atom_gen)))

let step_equal (a : Codec.step_record) (b : Codec.step_record) =
  a.Codec.step = b.Codec.step
  && a.rule_index = b.rule_index
  && a.rule_name = b.rule_name
  && Subst.equal a.hom b.hom
  && a.depth = b.depth
  && a.created_nulls = b.created_nulls
  && List.length a.created_atoms = List.length b.created_atoms
  && List.for_all2 Atom.equal a.created_atoms b.created_atoms

let step_roundtrip =
  qcheck ~count:300 "step record roundtrips"
    (QCheck.make ~print:(Fmt.to_to_string Codec.pp_step) step_gen)
    (fun sr -> step_equal sr (Codec.decode_step (Codec.encode_step sr)))

let varint_roundtrip =
  qcheck ~count:300 "varint roundtrips"
    QCheck.(int_bound max_int)
    (fun n ->
      let b = Buffer.create 10 in
      Codec.put_varint b n;
      Codec.get_varint (Codec.reader (Buffer.contents b)) = n)

let test_decode_garbage () =
  List.iter
    (fun s ->
      match Codec.decode_step s with
      | _ -> Alcotest.fail "garbage decoded"
      | exception Codec.Corrupt _ -> ())
    [ ""; "\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"; "\x01\x02" ]

(* ------------------------------------------------------------------ *)
(* Journal *)

let test_journal_roundtrip () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let result = run_journaled path rules db in
  Alcotest.(check bool) "terminated" true
    (result.Engine.status = Engine.Terminated);
  (match Journal.read path with
  | Error msg -> Alcotest.fail msg
  | Ok (header, records, tail) ->
    Alcotest.(check bool) "tail clean" true (tail = Journal.Clean);
    Alcotest.(check int) "one record per trigger"
      result.Engine.triggers_applied (List.length records);
    Alcotest.(check (result unit string)) "header matches" (Ok ())
      (Journal.matches header ~variant:Variant.Oblivious ~rules ~db);
    Alcotest.(check bool) "variant mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Restricted ~rules ~db));
    Alcotest.(check bool) "rules mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Oblivious
            ~rules:(parse "q: e(X, Y) -> e(Y, X).")
            ~db));
    Alcotest.(check bool) "db mismatch refused" true
      (Result.is_error
         (Journal.matches header ~variant:Variant.Oblivious ~rules
            ~db:[ fact "e(z, z)" ]));
    (* step records are contiguous from 1 *)
    List.iteri
      (fun i sr ->
        Alcotest.(check int) "contiguous step" (i + 1) sr.Codec.step)
      records);
  cleanup path

let test_journal_missing_and_garbage () =
  Alcotest.(check bool) "missing file is an error" true
    (Result.is_error (Journal.read "/nonexistent/journal.jnl"));
  let path = tmp_journal () in
  let oc = open_out_bin path in
  output_string oc "this is not a chase journal at all";
  close_out oc;
  Alcotest.(check bool) "bad magic is an error" true
    (Result.is_error (Journal.read path));
  cleanup path

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_roundtrip () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  let spath = Session.snapshot_path path in
  (match Snapshot.read spath with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Alcotest.(check int) "snapshot covers the full run" 165
      s.Snapshot.last_step;
    Alcotest.(check int) "records match last_step" s.Snapshot.last_step
      (List.length s.Snapshot.records));
  (* flip one payload byte: the snapshot must become unusable, not lie *)
  let ic = open_in_bin spath in
  let blob = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let corrupted = Bytes.of_string blob in
  let mid = Bytes.length corrupted / 2 in
  Bytes.set corrupted mid (Char.chr (Char.code (Bytes.get corrupted mid) lxor 0xff));
  let oc = open_out_bin spath in
  output_bytes oc corrupted;
  close_out oc;
  Alcotest.(check bool) "corrupted snapshot rejected" true
    (Result.is_error (Snapshot.read spath));
  (* recovery falls back to the journal alone *)
  let report = recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "journal carries the run" 165
    (List.length report.Recovery.history);
  Alcotest.(check int) "snapshot ignored" 0 report.Recovery.snapshot_step;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Crash determinism: the acceptance property *)

let test_crash_determinism () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  Alcotest.(check bool) "baseline terminated" true
    (baseline.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "workload is large enough" true
    (baseline.Engine.triggers_applied > 50);
  for k = 1 to 50 do
    let path = tmp_journal () in
    (match
       run_journaled ~fault:(Faults.Kill_after_record k) ~fsync_every:1 path
         rules db
     with
    | _ -> Alcotest.fail "armed crash did not fire"
    | exception Faults.Crash _ -> ());
    let report = recover_exn ~variant:Variant.Oblivious path rules db in
    Alcotest.(check int)
      (Fmt.str "k=%d: journal holds exactly k records" k)
      k
      (List.length report.Recovery.history);
    Alcotest.(check bool) (Fmt.str "k=%d: tail is clean" k) true
      (report.Recovery.torn = None);
    let resumed = resume_run path report rules db in
    Alcotest.(check bool) (Fmt.str "k=%d: resumed run terminated" k) true
      (resumed.Engine.status = Engine.Terminated);
    check_same_run (Fmt.str "k=%d" k) baseline resumed;
    (match Engine.check_provenance resumed ~db with
    | Ok () -> ()
    | Error msg ->
      Alcotest.fail (Fmt.str "k=%d: provenance check failed: %s" k msg));
    cleanup path
  done

let test_torn_tail_truncation () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  (* tear the k-th record's frame after [bytes] bytes: recovery must
     keep the first k-1 records and truncate the torn tail silently *)
  List.iter
    (fun (k, bytes) ->
      let path = tmp_journal () in
      (match
         run_journaled ~fault:(Faults.Torn_write (k, bytes)) ~fsync_every:1
           path rules db
       with
      | _ -> Alcotest.fail "armed torn write did not fire"
      | exception Faults.Crash _ -> ());
      let report = recover_exn ~variant:Variant.Oblivious path rules db in
      Alcotest.(check int)
        (Fmt.str "k=%d,b=%d: valid prefix" k bytes)
        (k - 1)
        (List.length report.Recovery.history);
      Alcotest.(check bool)
        (Fmt.str "k=%d,b=%d: torn tail detected" k bytes)
        true
        (report.Recovery.torn <> None);
      (* recovery only reads; the repair cuts the torn tail off *)
      Alcotest.(check bool)
        (Fmt.str "k=%d,b=%d: recovery leaves the tail" k bytes)
        true
        (match Journal.read path with
        | Ok (_, _, Journal.Torn _) -> true
        | Ok (_, _, Journal.Clean) | Error _ -> false);
      Recovery.repair ~journal:path report;
      (* after repair the journal reads back clean *)
      (match Journal.read path with
      | Ok (_, records, tail) ->
        Alcotest.(check bool) "clean after repair" true (tail = Journal.Clean);
        Alcotest.(check int) "records survive repair" (k - 1)
          (List.length records)
      | Error msg -> Alcotest.fail msg);
      let resumed = resume_run path report rules db in
      check_same_run (Fmt.str "k=%d,b=%d" k bytes) baseline resumed;
      cleanup path)
    [ (1, 3); (2, 7); (10, 1); (25, 11); (50, 20); (100, 5) ]

let test_snapshot_ahead_of_journal () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  (* lose most of the journal but keep the (complete) snapshot: recovery
     must prefer the snapshot and rewrite the journal to match it *)
  Journal.truncate_at path 200;
  let report =
    recover_exn
      ~snapshot:(Session.snapshot_path path)
      ~variant:Variant.Oblivious path rules db
  in
  Alcotest.(check int) "snapshot carries the run" 165
    report.Recovery.snapshot_step;
  Alcotest.(check int) "history from the snapshot" 165
    (List.length report.Recovery.history);
  Alcotest.(check bool) "journal behind the snapshot" true
    (report.Recovery.journal_records < 165);
  Recovery.repair ~journal:path report;
  (match Journal.read path with
  | Ok (_, records, tail) ->
    Alcotest.(check bool) "rewritten journal is clean" true
      (tail = Journal.Clean);
    Alcotest.(check int) "rewritten journal holds the history" 165
      (List.length records)
  | Error msg -> Alcotest.fail msg);
  let resumed = resume_run path report rules db in
  check_same_run "snapshot recovery" baseline resumed;
  cleanup path

let test_resume_continues_journal () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  (match
     run_journaled ~fault:(Faults.Kill_after_record 40) ~fsync_every:1 path
       rules db
   with
  | _ -> Alcotest.fail "armed crash did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  let resumed = resume_run path report rules db in
  Alcotest.(check bool) "resumed run terminated" true
    (resumed.Engine.status = Engine.Terminated);
  (* the continued journal now records the complete run *)
  (match Journal.read path with
  | Ok (_, records, tail) ->
    Alcotest.(check bool) "continued journal clean" true
      (tail = Journal.Clean);
    Alcotest.(check int) "continued journal is complete"
      baseline.Engine.triggers_applied (List.length records)
  | Error msg -> Alcotest.fail msg);
  (* resuming the finished journal checks every step and appends none *)
  let before = read_bytes path in
  let report2 = recover_exn ~variant:Variant.Oblivious path rules db in
  let resumed2 = resume_run path report2 rules db in
  check_same_run "doubly recovered" baseline resumed2;
  Alcotest.(check string) "nothing appended to a finished journal" before
    (read_bytes path);
  cleanup path

let test_restricted_resume () =
  let rules = rules () and db = db () in
  let baseline = chase ~variant:Variant.Restricted rules db in
  let path = tmp_journal () in
  (match
     run_journaled ~variant:Variant.Restricted
       ~fault:(Faults.Kill_after_record 10) ~fsync_every:1 path rules db
   with
  | _ -> Alcotest.fail "armed crash did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Restricted path rules db in
  let resumed = resume_run ~variant:Variant.Restricted path report rules db in
  Alcotest.(check bool) "restricted resume terminated" true
    (resumed.Engine.status = Engine.Terminated);
  Alcotest.(check bool) "restricted resume is a model" true
    (Engine.is_model rules resumed.Engine.instance);
  (match Engine.check_provenance resumed ~db with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("restricted provenance: " ^ msg));
  (* the skip count is exact, not "0 when unknown" *)
  check_same_run "restricted resume" baseline resumed;
  cleanup path

(* A resumed run's final counters match the uninterrupted run's exactly,
   at any kill point (including a kill after the very last record). *)
let test_resume_counters_exact () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  List.iter
    (fun k ->
      let path = tmp_journal () in
      (match
         run_journaled ~fault:(Faults.Kill_after_record k) ~fsync_every:1 path
           rules db
       with
      | _ -> Alcotest.fail "armed crash did not fire"
      | exception Faults.Crash _ -> ());
      let report = recover_exn ~variant:Variant.Oblivious path rules db in
      Alcotest.(check int)
        (Fmt.str "k=%d: recovered history = journal records" k)
        k
        (List.length report.Recovery.history);
      let resumed = resume_run path report rules db in
      check_same_run (Fmt.str "k=%d" k) baseline resumed;
      cleanup path)
    [ 1; 17; 83; 164; 165 ]

(* ------------------------------------------------------------------ *)
(* Recovery racing a concurrent snapshot: the kill lands while the
   snapshot writer is mid-temp-file and the journal has advanced past
   the last complete snapshot.  The atomic write-temp/rename discipline
   means the visible [.snap] is always either a previous complete
   snapshot or absent — what a kill leaves behind is [.snap.tmp] litter
   (and, on a dying disk, possibly a scribbled [.snap]).  Twenty kill
   points, cycling the litter shapes; recovery must pick the best valid
   prefix every time and never trip over the litter. *)

let scribble path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let truncate_file path frac =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let keep = in_channel_length ic * frac / 100 in
    let blob = really_input_string ic keep in
    close_in ic;
    scribble path blob
  end

let test_snapshot_race () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let total = baseline.Engine.triggers_applied in
  for i = 0 to 19 do
    let k = 5 + (8 * i) in
    Alcotest.(check bool) "kill point within the run" true (k < total);
    let path = tmp_journal () in
    let spath = Session.snapshot_path path in
    let tmp = spath ^ ".tmp" in
    (match
       run_journaled ~snapshot_every:8 ~fsync_every:1
         ~fault:(Faults.Kill_after_record k) path rules db
     with
    | _ -> Alcotest.fail "armed crash did not fire"
    | exception Faults.Crash _ -> ());
    (match i mod 4 with
    | 0 ->
      (* killed mid-temp-write: torn [.snap.tmp], [.snap] intact *)
      scribble tmp "CHSNAPSH torn half-way through"
    | 1 ->
      (* killed before the first snapshot ever completed *)
      if Sys.file_exists spath then Sys.remove spath;
      scribble tmp "x"
    | 2 ->
      (* a dying disk scribbled over the visible snapshot *)
      truncate_file spath 33;
      scribble tmp ""
    | _ -> () (* the rename happened; no litter at all *));
    let report =
      recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db
    in
    (* the journal held every record (fsync_every:1), so the best valid
       prefix is all k of them regardless of what the snapshot said *)
    Alcotest.(check int)
      (Fmt.str "i=%d k=%d: best valid prefix" i k)
      k
      (List.length report.Recovery.history);
    let resumed = resume_run path report rules db in
    Alcotest.(check bool) (Fmt.str "i=%d k=%d: terminated" i k) true
      (resumed.Engine.status = Engine.Terminated);
    check_same_run (Fmt.str "i=%d k=%d" i k) baseline resumed;
    if Sys.file_exists tmp then Sys.remove tmp;
    cleanup path
  done

let test_snapshot_race_ahead () =
  (* the complement: the snapshot is complete and AHEAD of a torn
     journal, with temp litter on top — recovery must prefer the
     snapshot's longer prefix and still ignore the litter *)
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  let spath = Session.snapshot_path path in
  let _ = run_journaled ~snapshot_every:10 path rules db in
  Journal.truncate_at path 200;
  scribble (spath ^ ".tmp") "CHSNAPSH litter from a later racing write";
  let report =
    recover_exn ~snapshot:spath ~variant:Variant.Oblivious path rules db
  in
  Alcotest.(check int) "snapshot prefix wins" 165
    (List.length report.Recovery.history);
  let resumed = resume_run path report rules db in
  check_same_run "snapshot-ahead race" baseline resumed;
  Sys.remove (spath ^ ".tmp");
  cleanup path

(* ------------------------------------------------------------------ *)
(* Write-fault composition: independent arming per journal path          *)

let test_faults_compose_same_record () =
  let rules = rules () and db = db () in
  let p1 = tmp_journal () and p2 = tmp_journal () in
  (* Kill_after_record and Torn_write armed together on one stream,
     same record: the torn write must win (the kill would have written
     record 5 in full first, which a torn append precludes) *)
  Faults.Writes.arm p1
    [ Faults.Kill_after_record 5; Faults.Torn_write (5, 4) ];
  Alcotest.(check int) "both faults armed" 2
    (List.length (Faults.Writes.armed_for p1));
  (match run_journaled ~fsync_every:1 p1 rules db with
  | _ -> Alcotest.fail "armed faults did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious p1 rules db in
  Alcotest.(check int) "torn beats kill: prefix is 4" 4
    (List.length report.Recovery.history);
  Alcotest.(check bool) "torn tail detected" true
    (report.Recovery.torn <> None);
  (* a second session on an unarmed path is untouched by p1's faults *)
  let r2 = run_journaled ~fsync_every:1 p2 rules db in
  Alcotest.(check bool) "unarmed path unaffected" true
    (r2.Engine.status = Engine.Terminated);
  Faults.Writes.reset ();
  Alcotest.(check int) "reset disarms" 0
    (List.length (Faults.Writes.armed_for p1));
  cleanup p1;
  cleanup p2

let test_faults_compose_ordered () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  (* different records: whichever comes first fires; the other never
     gets the chance *)
  Faults.Writes.arm path
    [ Faults.Torn_write (12, 6); Faults.Kill_after_record 7 ];
  (match run_journaled ~fsync_every:1 path rules db with
  | _ -> Alcotest.fail "armed faults did not fire"
  | exception Faults.Crash _ -> ());
  Faults.Writes.reset ();
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "kill at 7 fired first" 7
    (List.length report.Recovery.history);
  Alcotest.(check bool) "no torn tail" true (report.Recovery.torn = None);
  cleanup path

let test_faults_registry_merges_explicit () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  (* registry faults combine with the explicitly passed one *)
  Faults.Writes.arm path [ Faults.Torn_write (6, 2) ];
  (match
     run_journaled ~fsync_every:1 ~fault:(Faults.Kill_after_record 20) path
       rules db
   with
  | _ -> Alcotest.fail "merged faults did not fire"
  | exception Faults.Crash _ -> ());
  Faults.Writes.reset ();
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check int) "registry torn fired before explicit kill" 5
    (List.length report.Recovery.history);
  Alcotest.(check bool) "torn detected" true (report.Recovery.torn <> None);
  cleanup path

let test_fsync_fail () =
  let rules = rules () and db = db () in
  let baseline = chase rules db in
  let path = tmp_journal () in
  (* a dying disk: the k-th fsync through the writer fails fatally;
     whatever reached the platters before it must still recover *)
  (match
     run_journaled ~fsync_every:1 ~fault:(Faults.Fsync_fail 3) path rules db
   with
  | _ -> Alcotest.fail "fsync fault did not fire"
  | exception Faults.Crash _ -> ());
  let report = recover_exn ~variant:Variant.Oblivious path rules db in
  Alcotest.(check bool) "some prefix survived" true
    (List.length report.Recovery.history >= 1);
  let resumed = resume_run path report rules db in
  check_same_run "fsync-fail recovery" baseline resumed;
  cleanup path

let test_recover_wrong_program () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled path rules db in
  Alcotest.(check bool) "wrong rules refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Oblivious
          ~rules:(parse "q: e(X, Y) -> e(Y, X).")
          ~db ()));
  Alcotest.(check bool) "wrong variant refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Semi_oblivious ~rules
          ~db ()));
  Alcotest.(check bool) "wrong db refused" true
    (Result.is_error
       (Recovery.recover ~journal:path ~variant:Variant.Oblivious ~rules
          ~db:[ fact "e(z, z)" ] ()));
  cleanup path

(* A cancelled recovery stops reading: a token cancelled before the call
   refuses even a journal of another program before its header is
   matched, and the journal reader asks its [stop] hook every 16 records,
   so a read stopped at its third question decoded 32 of 165 records. *)
let test_recover_cancelled () =
  let rules = rules () and db = db () in
  let path = tmp_journal () in
  let _ = run_journaled path rules db in
  let cancel = Limits.Cancel.create () in
  Limits.Cancel.cancel cancel;
  let recover rules =
    match Recovery.recover ~cancel ~journal:path ~variant:Variant.Oblivious ~rules ~db () with
    | Ok _ -> "recovered"
    | Error m -> m
  in
  Alcotest.(check string) "cancelled before reading" "certification cancelled" (recover rules);
  Alcotest.(check string) "cancelled before the header check" "certification cancelled"
    (recover (parse "q: e(X, Y) -> e(Y, X)."));
  let asked = ref 0 in
  let read = Journal.read ~stop:(fun () -> incr asked; !asked >= 3) path in
  Alcotest.(check string) "stopped read" "journal read stopped"
    (match read with Ok _ -> "read" | Error m -> m);
  Alcotest.(check int) "asked before reading and after records 16 and 32" 3 !asked;
  cleanup path

(* ------------------------------------------------------------------ *)
(* Resuming through the CLI driver                                     *)
(* ------------------------------------------------------------------ *)

(** The workload above as a program file. *)
let tc_src =
  "tc: e(X, Y), e(Y, Z) -> e(X, Z).\nmk: e(X, Y) -> r(X, W).\n"
  ^ String.concat " " (List.init 9 (fun i -> Fmt.str "e(a%d, a%d)." i (i + 1)))

(** Run [chase] on [src] as the CLI does: exit code, stdout, stderr. *)
let drive ?journal ?resume ?(critical = false) ?budget ~variant src =
  let ob = Buffer.create 4096 and eb = Buffer.create 256 in
  let out = Format.formatter_of_buffer ob
  and err = Format.formatter_of_buffer eb in
  let o =
    Driver.chase_opts ~variant ?budget ~critical ?journal ?resume ()
  in
  let code = Driver.chase o ~file:"prog.chase" ~src ~out ~err in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  (code, Buffer.contents ob, Buffer.contents eb)

(* Kill a journaled run at its first, middle and last record (and at
   the extra points listed, where the run has them), resume it with the
   same options, and demand the uninterrupted run's stdout and journal,
   byte for byte.  Budget-exhausted runs print counts (facts, nulls,
   depth, restricted skips) that depend on the exact worklist order, so
   any resume that does not reproduce the run step for step shows. *)
let test_kill_point_sweep () =
  let cases =
    [
      (* the terminating workload, killed at each of its first ten
         records and one record before its end *)
      ("tc", tc_src, false, None, List.init 10 succ @ [ 17; 164 ]);
      ("divergent_zoo", read_data "divergent_zoo.chase", true, Some 300, []);
      ("genealogy", read_data "genealogy.chase", true, Some 3000, [ 1000 ]);
      (* the restricted chase of a critical instance applies nothing;
         from these facts it exhausts its budget too *)
      ( "divergent_zoo + facts",
        read_data "divergent_zoo.chase" ^ "\np(a, b). r(a, b). marked(b).\n",
        false, Some 300, [] );
    ]
  in
  List.iter
    (fun (name, src, critical, budget, extra) ->
      List.iter
        (fun variant ->
          let full = tmp_journal () in
          let code, out, _ =
            drive ~journal:full ~critical ?budget ~variant src
          in
          let n =
            match Journal.read full with
            | Ok (_, records, _) -> List.length records
            | Error msg -> Alcotest.fail msg
          in
          List.iter
            (fun k ->
              let what =
                Fmt.str "%s %a k=%d/%d" name Variant.pp variant k n
              in
              let path = tmp_journal () in
              Faults.Writes.arm path [ Faults.Kill_after_record k ];
              (match drive ~journal:path ~critical ?budget ~variant src with
              | _ -> Alcotest.fail (what ^ ": armed crash did not fire")
              | exception Faults.Crash _ -> ());
              Faults.Writes.disarm path;
              let code', out', _ =
                drive ~resume:path ~critical ?budget ~variant src
              in
              Alcotest.(check int) (what ^ ": exit code") code code';
              Alcotest.(check string) (what ^ ": stdout") out out';
              Alcotest.(check bool) (what ^ ": journal bytes") true
                (String.equal (read_bytes full) (read_bytes path));
              cleanup path)
            (List.filter
               (fun k -> k >= 1 && k <= n)
               (List.sort_uniq Int.compare ([ 1; (n + 1) / 2; n ] @ extra)));
          cleanup full)
        [ Variant.Oblivious; Variant.Semi_oblivious; Variant.Restricted ])
    cases

(* Every way a journal can disagree with the chase it claims to record
   is refused — by a resume, which exits 2 with the record number and
   appends nothing, and by a standby's certification, which never
   touches the spool. *)
let test_replay_rejects_tampering () =
  let rules = rules () and db = db () in
  let full = tmp_journal () in
  let _ = run_journaled full rules db in
  let header, records =
    match Journal.read full with
    | Ok (h, records, _) -> (h, records)
    | Error msg -> Alcotest.fail msg
  in
  let at i f = List.mapi (fun j sr -> if j = i then f sr else sr) records in
  let nulls_at =
    let rec go i = function
      | [] -> Alcotest.fail "no record invents a null"
      | sr :: rest ->
        if sr.Codec.created_nulls <> [] then i else go (i + 1) rest
    in
    go 0 records
  in
  let last = List.nth records (List.length records - 1) in
  let consts sub =
    Subst.of_list
      (List.map (fun (v, _) -> (v, Term.Const "zz")) (Subst.to_list sub))
  in
  let cases =
    [
      ( "step gap",
        List.filteri (fun i _ -> i <> 2) records,
        "journal record 3: step" );
      ( "rule index out of range",
        at 4 (fun sr -> { sr with Codec.rule_index = 7 }),
        "journal record 5: rule index" );
      ( "rule name",
        at 4 (fun sr -> { sr with Codec.rule_name = "nope" }),
        "journal record 5: rule name" );
      ( "homomorphism",
        at 4 (fun sr -> { sr with Codec.hom = consts sr.Codec.hom }),
        "journal record 5: homomorphism" );
      ( "depth",
        at 4 (fun sr -> { sr with Codec.depth = sr.Codec.depth + 1 }),
        "journal record 5: depth" );
      ( "null stamps",
        at nulls_at (fun sr ->
            {
              sr with
              Codec.created_nulls = List.map (( + ) 1000) sr.Codec.created_nulls;
            }),
        Fmt.str "journal record %d: null stamps" (nulls_at + 1) );
      ( "created atoms",
        at 4 (fun sr -> { sr with Codec.created_atoms = [ fact "bogus(x)" ] }),
        "journal record 5: created atoms" );
      ( "records past a terminated run",
        records @ [ { last with Codec.step = last.Codec.step + 1 } ],
        Fmt.str "journal record %d: the chase terminated"
          (last.Codec.step + 1) );
    ]
  in
  (* a one-request spool for the standby's certification *)
  let spool =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "chase_test_%d_spool" (Unix.getpid ()))
  in
  (try Unix.mkdir spool 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let jnl = Filename.concat spool "t.jnl"
  and req = Filename.concat spool "t.req" in
  let oc = open_out_bin req in
  output_string oc
    (Proto.encode_request
       (Proto.request ~program:tc_src ~variant:"oblivious" Proto.Chase));
  close_out oc;
  (* The journal reader ends a journal at a step gap (a torn tail), so
     a gappy history reaches the check through a snapshot ahead of the
     journal. *)
  let plant name history =
    cleanup jnl;
    if name = "step gap" then begin
      Journal.rewrite jnl header [];
      Snapshot.write (Session.snapshot_path jnl)
        { Snapshot.header; last_step = List.length records; records = history }
    end
    else Journal.rewrite jnl header history
  in
  List.iter
    (fun (name, history, expected) ->
      plant name history;
      let before = read_bytes jnl in
      (match Receiver.certify_one ~spool_dir:spool "t.jnl" with
      | Some (Error msg) ->
        Alcotest.(check bool)
          (Fmt.str "%s: certification names %S (got %S)" name expected msg)
          true (contains msg expected)
      | Some (Ok _) -> Alcotest.failf "%s: certified a tampered journal" name
      | None -> Alcotest.failf "%s: request not found" name);
      Alcotest.(check string)
        (name ^ ": certification leaves the journal")
        before (read_bytes jnl);
      let code, out, err = drive ~resume:jnl ~variant:Variant.Oblivious tc_src in
      Alcotest.(check int) (name ^ ": resume exits 2") 2 code;
      Alcotest.(check string) (name ^ ": nothing printed") "" out;
      Alcotest.(check bool)
        (Fmt.str "%s: resume names %S (got %S)" name expected err)
        true
        (contains err ("cannot resume: " ^ expected));
      Alcotest.(check string) (name ^ ": nothing appended") before
        (read_bytes jnl))
    cases;
  (* the untampered journal certifies, and resumes appending nothing *)
  plant "untampered" records;
  Alcotest.(check bool) "untampered journal certifies" true
    (Receiver.certify_one ~spool_dir:spool "t.jnl"
    = Some (Ok (List.length records)));
  let code, _, _ = drive ~resume:jnl ~variant:Variant.Oblivious tc_src in
  Alcotest.(check int) "untampered journal resumes" 0 code;
  Alcotest.(check string) "untampered journal unchanged" (read_bytes full)
    (read_bytes jnl);
  cleanup jnl;
  cleanup full;
  Sys.remove req;
  Sys.rmdir spool

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    step_roundtrip;
    varint_roundtrip;
    Alcotest.test_case "garbage payloads raise Corrupt" `Quick
      test_decode_garbage;
    Alcotest.test_case "journal roundtrip + identity checks" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "missing/garbage journals are errors" `Quick
      test_journal_missing_and_garbage;
    Alcotest.test_case "snapshot roundtrip + corruption" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "crash at each of the first 50 records" `Slow
      test_crash_determinism;
    Alcotest.test_case "torn tails are truncated, not fatal" `Quick
      test_torn_tail_truncation;
    Alcotest.test_case "snapshot ahead of a lost journal" `Quick
      test_snapshot_ahead_of_journal;
    Alcotest.test_case "resume continues the journal" `Quick
      test_resume_continues_journal;
    Alcotest.test_case "restricted-chase resume" `Quick test_restricted_resume;
    Alcotest.test_case "resume counters match the uninterrupted run" `Quick
      test_resume_counters_exact;
    Alcotest.test_case
      "kill-point sweep: resumed stdout and journal = uninterrupted" `Quick
      test_kill_point_sweep;
    Alcotest.test_case "cancelled recovery stops reading the journal" `Quick
      test_recover_cancelled;
    Alcotest.test_case "wrong program/variant/db refused" `Quick
      test_recover_wrong_program;
    Alcotest.test_case "replay rejects tampered histories" `Quick
      test_replay_rejects_tampering;
    Alcotest.test_case "recovery races a killed snapshot (20 kill points)"
      `Slow test_snapshot_race;
    Alcotest.test_case "snapshot ahead of torn journal, with temp litter"
      `Quick test_snapshot_race_ahead;
    Alcotest.test_case "composed faults on one stream: torn beats kill"
      `Quick test_faults_compose_same_record;
    Alcotest.test_case "composed faults fire in record order" `Quick
      test_faults_compose_ordered;
    Alcotest.test_case "registry faults merge with explicit ones" `Quick
      test_faults_registry_merges_explicit;
    Alcotest.test_case "failed fsync loses nothing already synced" `Quick
      test_fsync_fail;
  ]

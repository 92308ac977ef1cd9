(** [chase] — run the chase on a program file.

    The input file mixes rules and facts (see {!Chase.Parser}); the tool
    runs the selected chase variant and prints the resulting instance and
    run statistics.  With [--critical] the input database is replaced by
    the critical instance of the rules.

    The run is resource-governed: [--budget] caps trigger applications,
    [--max-atoms] caps the instance size (independently of the budget),
    and [--timeout] sets a wall-clock deadline.  A breached limit exits
    with code 2 after printing the partial instance and a structured
    exhaustion reason (which limit, the dominant rule, the recent
    null-growth rate) on stderr; [--progress] streams periodic watchdog
    snapshots on stderr while the chase runs.

    The run is also crash-safe on request: [--journal FILE] appends one
    checksummed record per trigger application to a write-ahead journal
    (fsync cadence [--journal-sync]), with an atomic snapshot of the full
    history every [--snapshot-every] records at [FILE.snap].  After a
    kill, crash or breached limit, [--resume FILE] reads the journal (or
    the snapshot, when it is ahead) — ignoring a torn tail rather than
    failing — and runs the chase again from step zero, checking each
    step against the journaled record and appending only past the
    journal's end.  The chase is deterministic, so the resumed run
    prints exactly what an uninterrupted run with the same options
    prints.  The re-run is a run like any other: its limits, the
    [--timeout] window included, count from step zero.

    The run is observable on request: [--trace FILE] writes a Chrome
    trace-event file of the run's spans (load it in Perfetto or
    about:tracing), [--metrics FILE] writes JSONL metric events and a
    final summary per counter/gauge/histogram, and [--profile] prints a
    per-rule hot-spot table (time, firings, nulls, probe counts) after
    the run.

    Every run preflights the schema: an arity clash is reported as the
    [E001] diagnostic (exit 2) instead of surfacing as an exception from
    the engine's indexes.  [--lint] runs the full static battery of
    [chase-lint] first. *)

open Cmdliner
open Chase

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

let variant_conv =
  let parse s =
    match Variant.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Fmt.str "unknown chase variant %S" s))
  in
  Arg.conv (parse, Variant.pp)

(* The whole run lives in {!Chase.Driver.chase}, shared byte-for-byte
   with the service daemon; this executable only parses argv and reads
   the file. *)
let run file variant budget max_atoms timeout progress critical standard quiet
    journal snapshot_every journal_sync resume lint
    trace metrics flight profile =
  (match flight with Some _ as path -> Flight.configure ~path | None -> ());
  match read_file file with
  | Error msg ->
    Fmt.epr "error: cannot read input: %s@." msg;
    1
  | Ok src ->
    let o =
      Driver.chase_opts ~variant ~budget ~max_atoms ?timeout ~progress
        ~critical ~standard ~quiet ?journal ~snapshot_every ~journal_sync
        ?resume ~lint ?trace ?metrics ~profile ()
    in
    Driver.chase o ~file ~src ~out:Format.std_formatter
      ~err:Format.err_formatter

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"Program file with rules (body -> head.) and facts (p(a,b).)")

let variant_arg =
  Arg.(value & opt variant_conv Variant.Oblivious
       & info [ "v"; "variant" ] ~docv:"VARIANT"
           ~doc:"Chase variant: oblivious, semi-oblivious or restricted.")

let budget_arg =
  Arg.(value & opt int 100_000
       & info [ "b"; "budget" ] ~docv:"N"
           ~doc:"Maximum number of trigger applications.")

let max_atoms_arg =
  Arg.(value & opt int 400_000
       & info [ "max-atoms" ] ~docv:"N"
           ~doc:"Maximum number of facts in the instance (independent of \
                 the trigger budget).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline for the run; on expiry the partial \
                 instance is printed and the exit code is 2.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Stream periodic watchdog snapshots (throughput, instance \
                 size, queue length, null-growth rate) on stderr.")

let critical_arg =
  Arg.(value & flag
       & info [ "critical" ]
           ~doc:"Chase the critical instance of the rules instead of the \
                 facts in the file.")

let standard_arg =
  Arg.(value & flag
       & info [ "standard" ]
           ~doc:"Use the standard-database constants {*, 0, 1} for \
                 --critical.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print run statistics.")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Append a write-ahead journal of every trigger application \
                 to $(docv) (one checksummed record each), enabling \
                 $(b,--resume) after a crash or kill.  Snapshots go to \
                 $(docv).snap.")

let snapshot_every_arg =
  Arg.(value & opt int 512
       & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Publish an atomic snapshot of the journaled state every \
                 $(docv) records (0 disables snapshots).  Only meaningful \
                 with $(b,--journal) or $(b,--resume).")

let journal_sync_arg =
  Arg.(value & opt int 64
       & info [ "journal-sync" ] ~docv:"N"
           ~doc:"fsync the journal every $(docv) records (0: only at \
                 close; every record is still flushed to the OS).")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume an interrupted run from journal $(docv) (and \
                 $(docv).snap when present): run the chase again from \
                 step zero, checking every step against the journaled one \
                 and appending only past the journal's end (a torn tail \
                 is cut off first).  The output is the uninterrupted \
                 run's.  A step that differs from its record, or a run \
                 that terminates before the journal's end, refuses the \
                 resume (exit 2) and leaves $(docv) unchanged.  The \
                 re-run counts against $(b,--budget) and $(b,--timeout): \
                 a run that needs more than its $(b,--timeout) in total \
                 cannot be finished by resuming it under the same \
                 deadline.  The program file must be the one the journal \
                 was written for.")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Run the static diagnostics battery (see chase-lint) \
                 before chasing; diagnostics go to stderr and errors \
                 abort with exit status 2.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event file of the run's spans \
                 (chase, seed, per-rule trigger applications, matching) \
                 to $(docv); load it in Perfetto or about:tracing.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write metric events and final counter / gauge / \
                 histogram summaries as JSON lines to $(docv) (first \
                 line is a schema header).")

let flight_arg =
  Arg.(value & opt (some string) None
       & info [ "flight" ] ~docv:"FILE"
           ~doc:"Flight recorder: on a breached limit, dump the \
                 in-memory ring of the run's most recent events \
                 (spans, watchdog ticks) to $(docv) as JSONL.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print a per-rule hot-spot table after the run: time, \
                 firings, nulls created and candidate facts probed per \
                 rule.")

let cmd =
  let doc = "run the chase procedure on a rule set and database" in
  Cmd.v
    (Cmd.info "chase" ~doc)
    Cmdliner.Term.(
      const run $ file_arg $ variant_arg $ budget_arg $ max_atoms_arg
      $ timeout_arg $ progress_arg $ critical_arg $ standard_arg $ quiet_arg
      $ journal_arg $ snapshot_every_arg
      $ journal_sync_arg $ resume_arg $ lint_arg $ trace_arg $ metrics_arg
      $ flight_arg $ profile_arg)

let () = exit (Cmd.eval' cmd)

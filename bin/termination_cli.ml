(** [chase-termination] — decide all-instance chase termination.

    Reads a rule file, classifies the set (simple linear / linear /
    guarded / unguarded) and dispatches to the strongest procedure of the
    library ({!Chase.Decide}).  Exit status: 0 terminates, 2 diverges,
    3 unknown.

    [--timeout] bounds the budgeted chase (the critical-instance chase of
    the linear, guarded and unguarded procedures, or the restricted
    generic probe) by wall clock as well; when a limit is breached the
    [unknown] verdict carries the structured exhaustion diagnostics,
    distinguishing "slow but possibly converging" from "diverging so far"
    by the recent null-growth rate.  [--progress] streams watchdog
    snapshots of that chase on stderr.

    The decision is observable on request: [--trace FILE] writes a
    Chrome trace-event file of the procedure spans ([decide:<proc>],
    pump search, budgeted chase runs — load it in Perfetto),
    [--metrics FILE] writes JSONL metrics (per-procedure wall time,
    pump-search node counts, chase counters), and [--profile] prints
    the per-rule hot-spot table of the budgeted chase runs.

    Every run preflights the schema: an arity clash is reported as the
    [E001] diagnostic (exit 2) instead of surfacing as an exception from
    deep inside a procedure.  [--lint] runs the full static battery of
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

(* The whole run lives in {!Chase.Driver.decide}, shared byte-for-byte
   with the service daemon; this executable only parses argv and reads
   the file. *)
let run file variant budget standard timeout progress report lint trace
    metrics profile =
  match read_file file with
  | Error msg ->
    Fmt.epr "error: cannot read input: %s@." msg;
    1
  | Ok src ->
    let o =
      Driver.decide_opts ~variant ~budget ~standard ?timeout ~progress ~report
        ~lint ?trace ?metrics ~profile ()
    in
    Driver.decide o ~file ~src ~out:Format.std_formatter
      ~err:Format.err_formatter

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"Rule file (one 'body -> head.' per statement).")

let variant_arg =
  Arg.(value & opt variant_conv Variant.Semi_oblivious
       & info [ "v"; "variant" ] ~docv:"VARIANT"
           ~doc:"Chase variant: oblivious, semi-oblivious or restricted.")

let budget_arg =
  Arg.(value & opt int 50_000
       & info [ "b"; "budget" ] ~docv:"N"
           ~doc:"Trigger budget of the critical-instance chase that \
                 settles linear, guarded and unguarded sets (and of the \
                 restricted generic-instance probe); the atom budget is \
                 four times as large.")

let standard_arg =
  Arg.(value & opt bool true
       & info [ "standard" ] ~docv:"BOOL"
           ~doc:"Decide over standard databases (constants 0 and 1 \
                 available).")

let timeout_arg =
  Arg.(value & opt (some float) None
       & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Wall-clock deadline for the budgeted procedures; a \
                 breached deadline yields an unknown verdict with \
                 structured diagnostics.")

let progress_arg =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Stream periodic watchdog snapshots of the budgeted \
                 chase on stderr.")

let report_arg =
  Arg.(value & flag
       & info [ "report" ]
           ~doc:"Print the full analysis portfolio (class, every \
                 acyclicity condition, all variants, chase statistics).")

let lint_arg =
  Arg.(value & flag
       & info [ "lint" ]
           ~doc:"Run the static diagnostics battery (see chase-lint) \
                 before deciding; diagnostics go to stderr and errors \
                 abort with exit status 2.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event file of the procedure spans \
                 to $(docv); load it in Perfetto or about:tracing.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write metric events and final counter / gauge / \
                 histogram summaries as JSON lines to $(docv) (first \
                 line is a schema header).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Print the per-rule hot-spot table of the budgeted \
                 chase runs after the verdict.")

let cmd =
  let doc = "decide all-instance chase termination for a TGD set" in
  Cmd.v
    (Cmd.info "chase-termination" ~doc)
    Cmdliner.Term.(
      const run $ file_arg $ variant_arg $ budget_arg $ standard_arg
      $ timeout_arg $ progress_arg $ report_arg $ lint_arg $ trace_arg $ metrics_arg $ profile_arg)

let () = exit (Cmd.eval' cmd)

(** [chase-lint] — static diagnostics for rule sets.

    Reads one or more program files (rules, EGDs and facts may mix),
    runs the Σ-lint batteries and prints the findings with their
    machine-checkable witnesses ([--format json]) or as one human line
    per diagnostic.

    The default battery is purely static: schema/arity consistency
    (E001), guardedness (W010), subsumed rules (I031), write-only
    existentials (I032) and — when the file carries a database —
    unreachable predicates (I030) and dead rules (I033).  [--explain
    VARIANT] (repeatable) additionally runs the termination front door
    for that chase variant and attaches the causal witness of any
    divergence verdict (W020 on simple linear sets, W021 otherwise).
    [--analyze] runs the Σ-flow dataflow battery: the position-dataflow
    summary (strata, affected positions, may-trigger edges) plus the
    super-weak-acyclicity (I034) and stratification (I035) verdicts.

    Exit status: 2 when any file has errors, 1 when any has warnings
    (infos never gate), 0 otherwise.  Unreadable or unparsable input
    exits 2. *)

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

let format_conv =
  let parse = function
    | "human" -> Ok Driver.Human
    | "json" -> Ok Driver.Json_format
    | s -> Error (`Msg (Fmt.str "unknown format %S (human or json)" s))
  in
  let print fm = function
    | Driver.Human -> Fmt.string fm "human"
    | Driver.Json_format -> Fmt.string fm "json"
  in
  Arg.conv (parse, print)

(* The lint run lives in {!Chase.Driver.lint_one}, shared byte-for-byte
   with the service daemon. *)
let lint_file ~format ~explain ~analyze ~standard ~budget file =
  match read_file file with
  | Error msg ->
    Fmt.epr "error: cannot read input: %s@." msg;
    2
  | Ok src ->
    let o = Driver.lint_opts ~format ~explain ~analyze ~budget ~standard () in
    Driver.lint_one o ~file ~src ~out:Format.std_formatter
      ~err:Format.err_formatter

let run files format explain analyze budget standard =
  List.fold_left
    (fun acc file ->
      max acc (lint_file ~format ~explain ~analyze ~standard ~budget file))
    0 files

let files_arg =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
       ~doc:"Program files (rules, EGDs and facts may mix).")

let format_arg =
  Arg.(value & opt format_conv Human
       & info [ "format" ] ~docv:"FORMAT"
           ~doc:"Output format: human (one line per diagnostic) or json \
                 (one object per file, witnesses included).")

let explain_arg =
  Arg.(value & opt_all variant_conv []
       & info [ "e"; "explain" ] ~docv:"VARIANT"
           ~doc:"Also run the termination front door for this chase \
                 variant (oblivious, semi-oblivious or restricted; \
                 repeatable) and attach the causal witness of any \
                 divergence verdict.")

let analyze_arg =
  Arg.(value & flag
       & info [ "a"; "analyze" ]
           ~doc:"Also run the \xCE\xA3-flow dataflow battery: print the \
                 position-dataflow summary (strata, affected positions, \
                 may-trigger edges) and the super-weak-acyclicity and \
                 stratification verdicts with their witnesses (I034, \
                 I035).")

let budget_arg =
  Arg.(value & opt int Guarded.default_budget
       & info [ "b"; "budget" ] ~docv:"N"
           ~doc:"Trigger budget for the budgeted explain procedures.")

let standard_arg =
  Arg.(value & opt bool true
       & info [ "standard" ] ~docv:"BOOL"
           ~doc:"Explain over standard databases (constants 0 and 1 \
                 available).")

let cmd =
  let doc = "static diagnostics for TGD rule sets, with witnesses" in
  Cmd.v
    (Cmd.info "chase-lint" ~doc)
    Cmdliner.Term.(
      const run $ files_arg $ format_arg $ explain_arg $ analyze_arg
      $ budget_arg $ standard_arg)

let () = exit (Cmd.eval' cmd)

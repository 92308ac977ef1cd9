(** The shared run driver behind the CLIs and the service.

    [chase_cli], [termination_cli] and [lint_cli] used to own their run
    logic; the daemon must produce {e byte-identical} output for the
    same input, so the logic lives here once, parameterized over the
    output formatters.  The CLIs pass [Format.std_formatter] /
    [Format.err_formatter]; the service passes buffer formatters and
    ships the bytes back in the response.  Parity is by construction,
    and the cram suite pins it end-to-end.

    Each entry point takes the already-read source text ([src]) plus a
    display name ([file]) for diagnostics, and returns the process exit
    code the corresponding CLI would have used. *)

open Chase_logic
module Variant = Chase_engine.Variant
module Engine = Chase_engine.Engine
module Limits = Chase_engine.Limits
module Watchdog = Chase_engine.Watchdog
module Critical = Chase_engine.Critical
module Profile = Chase_engine.Profile
module Obs = Chase_obs.Obs
module Flight = Chase_obs.Flight
module Session = Chase_persist.Session
module Recovery = Chase_persist.Recovery
module Decide = Chase_termination.Decide
module Verdict = Chase_termination.Verdict
module Report = Chase_termination.Report
module Guarded = Chase_termination.Guarded
module Classify = Chase_classes.Classify
module Lint = Chase_analysis.Lint
module Json = Chase_obs.Jsonv
module Diagnostic = Chase_analysis.Diagnostic
module Schema_check = Chase_analysis.Schema_check

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Shared parsing and preflight                                        *)
(* ------------------------------------------------------------------ *)

(* [parse_program] with source locations kept: same error string for
   EGDs, and the located statements feed the arity preflight and
   [--lint]. *)
let parse_located_program src =
  match Parser.parse_located src with
  | Error _ as e -> e
  | Ok p -> (
    match p.Parser.legds with
    | (_, line) :: _ ->
      Error
        (Fmt.str
           "line %d: unexpected EGD: use parse_program_full for programs \
            with EGDs"
           line)
    | [] -> Ok p)

(* [parse_rules] with source locations kept. *)
let parse_located_rules src =
  match Parser.parse_located src with
  | Error _ as e -> e
  | Ok p -> (
    match p.Parser.legds with
    | (_, line) :: _ ->
      Error
        (Fmt.str
           "line %d: unexpected EGD: use parse_program_full for programs \
            with EGDs"
           line)
    | [] -> (
      match p.Parser.lfacts with
      | (_, line) :: _ ->
        Error (Fmt.str "line %d: unexpected fact in a rule file" line)
      | [] -> Ok p.Parser.lrules))

(* The arity preflight ([E001]) guards every code path that builds the
   joint schema (the critical instance, the engine indexes); with
   [lint] the whole static battery runs and errors are fatal. *)
let preflight ~err ~file ~lint (p : Parser.located_program) =
  if lint then begin
    let report = Lint.analyze (Lint.of_program p) in
    List.iter
      (fun d -> Fmt.pf err "%a@." (Diagnostic.pp ~file) d)
      report.Lint.diagnostics;
    Lint.errors report = 0
  end
  else
    match
      Schema_check.check ~rules:p.Parser.lrules ~facts:p.Parser.lfacts ()
    with
    | [] -> true
    | diags ->
      List.iter (fun d -> Fmt.pf err "%a@." (Diagnostic.pp ~file) d) diags;
      false

let preflight_rules ~err ~file ~lint lrules =
  if lint then begin
    let report = Lint.analyze { Lint.rules = lrules; egds = []; facts = [] } in
    List.iter
      (fun d -> Fmt.pf err "%a@." (Diagnostic.pp ~file) d)
      report.Lint.diagnostics;
    Lint.errors report = 0
  end
  else
    match Schema_check.check ~rules:lrules ~facts:[] () with
    | [] -> true
    | diags ->
      List.iter (fun d -> Fmt.pf err "%a@." (Diagnostic.pp ~file) d) diags;
      false

let watchdog_of ?on_snapshot ~err ~obs progress =
  if (not progress) && Option.is_none on_snapshot then None
  else
    (* the human stderr ticker is coarse; a machine consumer (the
       service's streaming progress frames) wants finer grain *)
    let every, min_interval =
      if progress then (1024, 0.25) else (256, 0.05)
    in
    Some
      (Watchdog.create ~every ~min_interval (fun s ->
           Obs.series obs "watchdog" (Watchdog.fields s);
           Obs.flush obs;
           Flight.instant "watchdog"
             ~args:
               [
                 ("step", Json.Int s.Watchdog.step);
                 ("steps_per_sec", Json.Float s.Watchdog.steps_per_sec);
               ];
           if progress then begin
             Fmt.pf err "%a@." Watchdog.pp_snapshot s;
             (* explicit flush: a kill mid-interval must not eat buffered
                progress lines *)
             Format.pp_print_flush err ()
           end;
           Option.iter (fun f -> f s) on_snapshot))

(* ------------------------------------------------------------------ *)
(* chase                                                               *)
(* ------------------------------------------------------------------ *)

type chase_opts = {
  variant : Variant.t;
  budget : int;
  max_atoms : int;
  timeout : float option;
  progress : bool;
  critical : bool;
  standard : bool;
  quiet : bool;
  journal : string option;
  snapshot_every : int;
  journal_sync : int;
  resume : string option;
  resume_or_start : bool;
      (** service mode: when [resume] fails — the journal is missing,
          unusable, or differs from the re-run — start a fresh journaled
          run at the same path instead of failing: boot recovery must
          make progress on a journal a kill left headerless *)
  lint : bool;
  trace : string option;
  metrics : string option;
  profile : bool;
  cancel : Limits.Cancel.t option;
  on_status : (Engine.status -> unit) option;
      (** observe the run's final status (the service's cacheability
          decision needs the breach, not just the exit code) *)
  resume_log : Format.formatter option;
      (** where resume/recovery diagnostics go (default [err]).  The
          service points this at its own log so a kill-resumed durable
          run's response stays byte-identical to a single-shot one *)
  on_progress : (Watchdog.snapshot -> unit) option;
      (** machine-readable progress: called at watchdog cadence with
          each snapshot.  Independent of [progress] (the human stderr
          ticker) and never touches [out]/[err], so enabling it cannot
          change the response bytes *)
}

let chase_opts ?(variant = Variant.Oblivious) ?(budget = 100_000)
    ?(max_atoms = 400_000) ?timeout ?(progress = false) ?(critical = false)
    ?(standard = false) ?(quiet = false) ?journal ?(snapshot_every = 512)
    ?(journal_sync = 64) ?resume ?(resume_or_start = false) ?(lint = false)
    ?trace ?metrics ?(profile = false) ?cancel ?on_status ?resume_log
    ?on_progress () =
  {
    variant;
    budget;
    max_atoms;
    timeout;
    progress;
    critical;
    standard;
    quiet;
    journal;
    snapshot_every;
    journal_sync;
    resume;
    resume_or_start;
    lint;
    trace;
    metrics;
    profile;
    cancel;
    on_status;
    resume_log;
    on_progress;
  }

let chase o ~file ~src ~out ~err =
  let rlog = Option.value o.resume_log ~default:err in
  match parse_located_program src with
  | Error msg ->
    Fmt.pf err "parse error: %s@." msg;
    1
  | Ok p when not (preflight ~err ~file ~lint:o.lint p) -> 2
  | Ok p ->
    let rules = List.map fst p.Parser.lrules
    and facts = List.map fst p.Parser.lfacts in
    let db =
      if o.critical then
        Instance.to_list (Critical.of_rules ~standard:o.standard rules)
      else facts
    in
    if db = [] then begin
      Fmt.pf err "no database: give facts in the file or pass --critical@.";
      1
    end
    else begin
      match Obs.files ?trace:o.trace ?metrics:o.metrics ~force:o.profile () with
      | Error msg ->
        Fmt.pf err "error: %s@." msg;
        1
      | Ok (obs, obs_close) -> (
        let limits =
          Limits.make ~max_triggers:o.budget ~max_atoms:o.max_atoms
            ?timeout:o.timeout ?cancel:o.cancel ()
        in
        let config = { Engine.variant = o.variant; limits } in
        let watchdog =
          watchdog_of ?on_snapshot:o.on_progress ~err ~obs o.progress
        in
        (* Durability wiring: a fresh journal, a continued one, or none.
           A continued journal is not restored into the engine: the run
           starts again from step zero and its session checks every step
           the journal holds, so a resumed run prints what the
           uninterrupted run prints. *)
        let start jpath =
          Session.start ~obs ~journal:jpath
            ~snapshot:(Session.snapshot_path jpath)
            ~snapshot_every:o.snapshot_every ~fsync_every:o.journal_sync
            ~variant:o.variant ~rules ~db ()
        in
        let continue jpath =
          let snapshot = Session.snapshot_path jpath in
          Recovery.recover ~snapshot ~journal:jpath ~variant:o.variant ~rules
            ~db ()
          |> Result.map (fun report ->
                 (match report.Recovery.torn with
                 | Some (off, why) ->
                   Fmt.pf rlog
                     "journal: torn tail at byte %d (%s), cut before the \
                      first append@."
                     off why
                 | None -> ());
                 Fmt.pf rlog
                   "resuming: re-running the chase against %d journal \
                    records%s@."
                   (List.length report.Recovery.history)
                   (if report.Recovery.snapshot_step > 0 then
                      Fmt.str " (snapshot through step %d)"
                        report.Recovery.snapshot_step
                    else "");
                 Session.continue_ ~obs ~journal:jpath ~snapshot
                   ~snapshot_every:o.snapshot_every
                   ~fsync_every:o.journal_sync report)
        in
        let run session =
          let go () =
            Engine.run ~config ~obs
              ?on_trigger:(Option.map Session.on_trigger session)
              ?watchdog rules db
          in
          match session with Some s -> Session.run s go | None -> Ok (go ())
        in
        let outcome =
          match (o.resume, o.journal) with
          | Some jpath, _ -> (
            match Result.bind (continue jpath) (fun s -> run (Some s)) with
            | Error msg when o.resume_or_start ->
              (* boot recovery: the kill may have landed before the
                 header reached the disk, or the journal may not be this
                 run's — restart the run, reusing the journal path so
                 the next kill still recovers *)
              Fmt.pf rlog "cannot recover (%s): starting fresh@." msg;
              run (Some (start jpath))
            | outcome -> outcome)
          | None, Some jpath -> run (Some (start jpath))
          | None, None -> run None
        in
        obs_close ();
        match outcome with
        | Error msg ->
          Fmt.pf err "cannot resume: %s@." msg;
          2
        | Ok result -> (
          Option.iter (fun f -> f result.Engine.status) o.on_status;
          if not o.quiet then
            List.iter
              (fun a -> Fmt.pf out "%a.@." Atom.pp a)
              (Instance.to_sorted_list result.Engine.instance);
          Fmt.pf out "%a@." Engine.pp_result result;
          if o.profile then Fmt.pf out "%a@." Profile.pp (Obs.metrics obs);
          match result.Engine.status with
          | Engine.Terminated -> 0
          | Engine.Exhausted reason ->
            (* post-mortem: the flight ring holds the run's last events.
               A deadline breach is the watchdog's stall verdict — the
               run was alive but not converging *)
            Flight.instant "exhausted"
              ~args:
                [
                  ("file", Json.String file);
                  ( "breach",
                    Json.String
                      (Fmt.str "%a" Limits.pp_breach
                         reason.Limits.Exhaustion.breach) );
                ];
            Flight.dump
              ~reason:
                (match reason.Limits.Exhaustion.breach with
                | Limits.Deadline _ -> "watchdog-stall"
                | _ -> "exhaustion");
            Fmt.pf err "%a@." Limits.Exhaustion.pp reason;
            2))
    end

(* ------------------------------------------------------------------ *)
(* decide                                                              *)
(* ------------------------------------------------------------------ *)

type decide_opts = {
  variant : Variant.t;
  budget : int;
  standard : bool;
  timeout : float option;
  progress : bool;
  report : bool;
  lint : bool;
  trace : string option;
  metrics : string option;
  profile : bool;
  cancel : Limits.Cancel.t option;
  on_verdict : (Verdict.t -> unit) option;
}

let decide_opts ?(variant = Variant.Semi_oblivious) ?(budget = 50_000)
    ?(standard = true) ?timeout ?(progress = false) ?(report = false)
    ?(lint = false) ?trace ?metrics ?(profile = false) ?cancel ?on_verdict ()
    =
  {
    variant;
    budget;
    standard;
    timeout;
    progress;
    report;
    lint;
    trace;
    metrics;
    profile;
    cancel;
    on_verdict;
  }

let decide o ~file ~src ~out ~err =
  match parse_located_rules src with
  | Error msg ->
    Fmt.pf err "parse error: %s@." msg;
    1
  | Ok lrules when not (preflight_rules ~err ~file ~lint:o.lint lrules) -> 2
  | Ok lrules ->
    let rules = List.map fst lrules in
    if o.report then begin
      Fmt.pf out "%a@." Report.pp (Report.build ~budget:o.budget rules);
      0
    end
    else begin
      match Obs.files ?trace:o.trace ?metrics:o.metrics ~force:o.profile () with
      | Error msg ->
        Fmt.pf err "error: %s@." msg;
        1
      | Ok (obs, obs_close) -> (
        Fmt.pf out "class: %a@." Classify.pp_cls (Classify.classify rules);
        let limits =
          match (o.timeout, o.cancel) with
          | None, None -> None
          | timeout, cancel ->
            Some
              (Limits.make ~max_triggers:o.budget ~max_atoms:(4 * o.budget)
                 ?timeout ?cancel ())
        in
        let watchdog = watchdog_of ~err ~obs o.progress in
        let v =
          Decide.check ~standard:o.standard ~budget:o.budget ?limits ?watchdog
            ~obs ~variant:o.variant rules
        in
        obs_close ();
        Option.iter (fun f -> f v) o.on_verdict;
        Fmt.pf out "%a@." Verdict.pp v;
        if o.profile then Fmt.pf out "%a@." Profile.pp (Obs.metrics obs);
        match Verdict.answer v with
        | Verdict.Terminates -> 0
        | Verdict.Diverges -> 2
        | Verdict.Unknown -> 3)
    end

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

type lint_format =
  | Human
  | Json_format

type lint_opts = {
  format : lint_format;
  explain : Variant.t list;
  analyze : bool;
  budget : int;
  standard : bool;
}

let lint_opts ?(format = Human) ?(explain = []) ?(analyze = false)
    ?(budget = -1) ?(standard = true) () =
  let budget = if budget < 0 then Guarded.default_budget else budget in
  { format; explain; analyze; budget; standard }

let lint_one o ~file ~src ~out ~err =
  match Parser.parse_located src with
  | Error msg ->
    Fmt.pf err "%s: parse error: %s@." file msg;
    2
  | Ok program ->
    let report =
      Lint.analyze ~explain:o.explain ~dataflow:o.analyze
        ~standard:o.standard ~budget:o.budget (Lint.of_program program)
    in
    (match o.format with
    | Human -> Fmt.pf out "%a" (Lint.pp_human ~file) report
    | Json_format ->
      Fmt.pf out "%s@." (Json.to_string (Lint.to_json ~file report)));
    Lint.exit_code report

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

(* A conjunctive query is written as one rule whose head is the answer
   atom: [q(X, Y) :- body] is ["body -> q(X, Y)."].  The program is
   chased (same options as the chase op) and the certain answers — the
   null-free tuples — are printed as facts, sorted.  A boolean query
   (propositional head) prints [true.] or [false.]. *)
let parse_query q =
  match Parser.parse_rule_exn q with
  | exception Parser.Parse_error msg -> Error (Fmt.str "bad query: %s" msg)
  | rule -> (
    match Tgd.head rule with
    | [ answer ] -> (
      let vars =
        List.map
          (function
            | Term.Var v -> Ok v
            | t -> Error (Fmt.str "query head argument %a is not a variable"
                            Term.pp t))
          (Array.to_list (Atom.args answer))
      in
      match List.find_opt Result.is_error vars with
      | Some (Error msg) -> Error msg
      | _ -> (
        let answer_vars = List.filter_map Result.to_option vars in
        match
          Query.make ~name:(Atom.pred answer) ~answer_vars (Tgd.body rule)
        with
        | Ok query -> Ok (query, Atom.pred answer)
        | Error msg -> Error (Fmt.str "bad query: %s" msg)))
    | _ -> Error "query must have exactly one head atom")

let query (o : chase_opts) ~query:q ~file ~src ~out ~err =
  match parse_query q with
  | Error msg ->
    Fmt.pf err "%s@." msg;
    1
  | Ok (query, pred) -> (
    match parse_located_program src with
    | Error msg ->
      Fmt.pf err "parse error: %s@." msg;
      1
    | Ok p when not (preflight ~err ~file ~lint:o.lint p) -> 2
    | Ok p ->
      let rules = List.map fst p.Parser.lrules
      and facts = List.map fst p.Parser.lfacts in
      if facts = [] then begin
        Fmt.pf err "no database: give facts in the file@.";
        1
      end
      else begin
        let limits =
          Limits.make ~max_triggers:o.budget ~max_atoms:o.max_atoms
            ?timeout:o.timeout ?cancel:o.cancel ()
        in
        let config = { Engine.variant = o.variant; limits } in
        let result = Engine.run ~config rules facts in
        Option.iter (fun f -> f result.Engine.status) o.on_status;
        let answers = Query.certain_answers query result.Engine.instance in
        if Query.answer_vars query = [] then
          Fmt.pf out "%s@." (if answers <> [] then "true." else "false.")
        else
          List.iter
            (fun tuple -> Fmt.pf out "%a.@." Atom.pp (Atom.of_list pred tuple))
            answers;
        match result.Engine.status with
        | Engine.Terminated -> 0
        | Engine.Exhausted reason ->
          (* the printed answers are sound but possibly incomplete: the
             chase stopped short of a universal model *)
          Fmt.pf err "%a@." Limits.Exhaustion.pp reason;
          2
      end)

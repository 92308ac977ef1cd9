(** [obs-check] — validate observability output files.

    A small CI checker for the files the CLIs emit.  [--trace FILE]
    verifies a Chrome trace — a CLI's [--trace] file or a merged one
    from [chasec trace-merge], both rendered from span records — as a
    {e trace tree}: well-formed JSON, a top-level array of [M], [X] and
    [C] events each carrying name/ph/ts, every [X] event naming its
    trace and span in its args, every trace id with exactly one root
    span, every child's parent present in the same trace, and no child
    starting before its root (within clock slack; spans shipped
    asynchronously to the standby may {e end} after the root ends,
    which is legal).  [--metrics FILE] verifies a metrics JSONL file (a
    [chase-metrics/1] schema header first, every line parses, at least
    one summary line follows).  [--telemetry FILE] verifies a
    [chase-telemetry/1] JSON snapshot; [--prom FILE] verifies
    Prometheus text-exposition syntax.

    Exit 0 when every checked file is valid, 1 otherwise. *)

module Jsonv = Chase.Jsonv

let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

let check_metrics path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    let lines =
      String.split_on_char '\n' src
      |> List.filter (fun l -> String.trim l <> "")
    in
    match lines with
    | [] -> fail "%s: empty metrics file" path
    | header :: rest -> (
      let schema_ok =
        match Jsonv.of_string header with
        | Ok j -> (
          let str k = Option.bind (Jsonv.member k j) Jsonv.to_string_opt in
          match (str "type", str "schema") with
          | Some "schema", Some "chase-metrics/1" -> true
          | _ -> false)
        | Error _ -> false
      in
      if not schema_ok then
        fail "%s: first line is not the chase-metrics/1 schema header" path
      else if rest = [] then
        fail "%s: no metric lines after the schema header" path
      else
        let rec parse i = function
          | [] -> Ok ()
          | l :: rest -> (
            match Jsonv.of_string l with
            | Error msg -> fail "%s: line %d: invalid JSON: %s" path i msg
            | Ok j -> (
              match Option.bind (Jsonv.member "type" j) Jsonv.to_string_opt with
              | Some _ -> parse (i + 1) rest
              | None ->
                fail "%s: line %d: missing or non-string \"type\"" path i))
        in
        match parse 2 rest with
        | Error _ as e -> e
        | Ok () ->
          Printf.printf "metrics OK: %s (%d lines)\n" path
            (List.length lines);
          Ok ()))

(* --- trace trees ------------------------------------------------------ *)

(* One span as re-read from a rendered trace. *)
type span = {
  s_name : string;
  s_trace : string;
  s_span : string;
  s_parent : string option;
  s_ts : float;
}

(* Same-host shards share a clock, but two processes can stamp within
   a few ms of each other in either order; allow that much slack when
   asserting that children start inside their root. *)
let clock_slack_us = 50_000.

(* Every event carries name/ph/ts; [X] events also their ids.  Returns
   the spans, in file order. *)
let collect_spans path events =
  let str k ev = Option.bind (Jsonv.member k ev) Jsonv.to_string_opt in
  let num k ev = Option.bind (Jsonv.member k ev) Jsonv.to_float_opt in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | (Jsonv.Obj _ as ev) :: rest -> (
      match (str "name" ev, str "ph" ev, num "ts" ev) with
      | None, _, _ -> fail "%s: event %d: missing or non-string \"name\"" path i
      | _, None, _ -> fail "%s: event %d: missing or non-string \"ph\"" path i
      | _, _, None -> fail "%s: event %d: missing or non-numeric \"ts\"" path i
      | Some _, Some ("M" | "C"), Some _ -> go (i + 1) acc rest
      | Some s_name, Some "X", Some s_ts -> (
        let args = Option.value ~default:Jsonv.Null (Jsonv.member "args" ev) in
        match (str "trace" args, str "span" args) with
        | Some s_trace, Some s_span ->
          go (i + 1)
            ({ s_name; s_trace; s_span; s_parent = str "parent" args; s_ts }
            :: acc)
            rest
        | _ -> fail "%s: event %d: X event lacks args.trace/span" path i)
      | Some _, Some ph, Some _ ->
        fail "%s: event %d: unexpected phase %S" path i ph)
    | _ :: _ -> fail "%s: event %d: not a JSON object" path i
  in
  go 0 [] events

let check_tree path trace spans =
  let ids = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace ids s.s_span s) spans;
  match List.filter (fun s -> s.s_parent = None) spans with
  | [] -> fail "%s: trace %s: no root span" path trace
  | _ :: _ :: _ as roots ->
    fail "%s: trace %s: %d root spans (want exactly one)" path trace
      (List.length roots)
  | [ root ] ->
    List.fold_left
      (fun acc s ->
        match (acc, s.s_parent) with
        | (Error _ as e), _ -> e
        | Ok (), None -> Ok ()
        | Ok (), Some p ->
          if not (Hashtbl.mem ids p) then
            fail "%s: trace %s: span %S (%s) has unknown parent %s" path trace
              s.s_name s.s_span p
          else if s.s_ts < root.s_ts -. clock_slack_us then
            fail "%s: trace %s: span %S starts %.0fus before its root" path
              trace s.s_name (root.s_ts -. s.s_ts)
          else Ok ())
      (Ok ()) spans

let check_trace path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    match Jsonv.of_string src with
    | Error msg -> fail "%s: invalid JSON: %s" path msg
    | Ok (Jsonv.List events) -> (
      match collect_spans path events with
      | Error _ as e -> e
      | Ok [] -> fail "%s: no spans" path
      | Ok spans -> (
        let traces = Hashtbl.create 7 in
        List.iter
          (fun s ->
            Hashtbl.replace traces s.s_trace
              (s :: Option.value ~default:[] (Hashtbl.find_opt traces s.s_trace)))
          spans;
        match
          Hashtbl.fold
            (fun trace spans acc ->
              match acc with
              | Error _ -> acc
              | Ok () -> check_tree path trace spans)
            traces (Ok ())
        with
        | Error _ as e -> e
        | Ok () ->
          Printf.printf "trace OK: %s (%d spans, %d traces, parents resolved)\n"
            path (List.length spans) (Hashtbl.length traces);
          Ok ()))
    | Ok _ -> fail "%s: top level is not a JSON array" path)

(* --- telemetry snapshot (JSON) -------------------------------------- *)

let check_telemetry path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    match Jsonv.of_string (String.trim src) with
    | Error msg -> fail "%s: invalid JSON: %s" path msg
    | Ok v -> (
      let str k = Option.bind (Jsonv.member k v) Jsonv.to_string_opt in
      let num k = Option.bind (Jsonv.member k v) Jsonv.to_float_opt in
      match (str "schema", str "build", num "uptime_s") with
      | Some "chase-telemetry/1", Some _, Some up when up >= 0. -> (
        let arr k =
          match Jsonv.member k v with
          | Some (Jsonv.List l) -> Ok l
          | _ -> fail "%s: missing array %S" path k
        in
        let named kind j =
          match Option.bind (Jsonv.member "name" j) Jsonv.to_string_opt with
          | Some _ -> (
            match Option.bind (Jsonv.member "value" j) Jsonv.to_float_opt with
            | Some _ -> Ok ()
            | None when kind = "histograms" -> (
              match Option.bind (Jsonv.member "p99" j) Jsonv.to_float_opt with
              | Some _ -> Ok ()
              | None -> fail "%s: a histogram lacks p99" path)
            | None -> fail "%s: a %s entry lacks a numeric value" path kind)
          | None -> fail "%s: a %s entry lacks a name" path kind
        in
        let check_arr kind =
          match arr kind with
          | Error _ as e -> e
          | Ok l ->
            List.fold_left
              (fun acc j -> match acc with Error _ -> acc | Ok () -> named kind j)
              (Ok ()) l
        in
        match
          List.fold_left
            (fun acc k -> match acc with Error _ -> acc | Ok () -> check_arr k)
            (Ok ())
            [ "counters"; "gauges"; "histograms" ]
        with
        | Error _ as e -> e
        | Ok () ->
          Printf.printf "telemetry OK: %s\n" path;
          Ok ())
      | Some "chase-telemetry/1", Some _, _ ->
        fail "%s: missing or negative uptime_s" path
      | Some "chase-telemetry/1", None, _ -> fail "%s: missing build id" path
      | _ -> fail "%s: not a chase-telemetry/1 snapshot" path))

(* --- Prometheus text exposition ------------------------------------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

let is_name s =
  s <> ""
  && (not (s.[0] >= '0' && s.[0] <= '9'))
  && String.for_all is_name_char s

(* [name] or [name{k="v",...}] — quotes must balance and close the
   braces; the value after the space must parse as a float. *)
let check_sample path i line =
  let n = String.length line in
  let name_end =
    let rec go j = if j < n && is_name_char line.[j] then go (j + 1) else j in
    go 0
  in
  if name_end = 0 then fail "%s: line %d: no metric name" path i
  else begin
    let rest_start =
      if name_end < n && line.[name_end] = '{' then begin
        (* scan the label block respecting quoted strings *)
        let rec scan j in_q =
          if j >= n then None
          else if in_q then
            if line.[j] = '\\' then scan (j + 2) true
            else scan (j + 1) (line.[j] <> '"')
          else if line.[j] = '"' then scan (j + 1) true
          else if line.[j] = '}' then Some (j + 1)
          else scan (j + 1) false
        in
        scan (name_end + 1) false
      end
      else Some name_end
    in
    match rest_start with
    | None -> fail "%s: line %d: unterminated label block" path i
    | Some j ->
      let value = String.trim (String.sub line j (n - j)) in
      if value = "" then fail "%s: line %d: no sample value" path i
      else if
        float_of_string_opt value = None
        && not (List.mem value [ "NaN"; "+Inf"; "-Inf" ])
      then fail "%s: line %d: bad sample value %S" path i value
      else Ok ()
  end

let check_prom path =
  match read_file path with
  | Error msg -> fail "%s: cannot read: %s" path msg
  | Ok src -> (
    let lines = String.split_on_char '\n' src in
    let rec walk i samples typed = function
      | [] ->
        if samples = 0 then fail "%s: no samples" path
        else begin
          Printf.printf "prom OK: %s (%d samples, %d types)\n" path samples
            typed;
          Ok ()
        end
      | line :: rest ->
        if String.trim line = "" then walk (i + 1) samples typed rest
        else if String.length line >= 1 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: kind :: []
            when is_name name
                 && List.mem kind
                      [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]
            ->
            walk (i + 1) samples (typed + 1) rest
          | "#" :: "HELP" :: name :: _ when is_name name ->
            walk (i + 1) samples typed rest
          | _ -> fail "%s: line %d: malformed comment %S" path i line
        end
        else (
          match check_sample path i line with
          | Ok () -> walk (i + 1) (samples + 1) typed rest
          | Error _ as e -> e)
    in
    walk 1 0 0 lines)

let usage () =
  prerr_endline
    "usage: obs-check [--trace FILE] [--metrics FILE] [--telemetry FILE]\n\
    \                 [--prom FILE]\n\
     Validate observability output files (Chrome trace tree / metrics\n\
     JSONL / telemetry snapshot / Prometheus text).";
  exit 1

let () =
  let rec parse checks = function
    | [] -> List.rev checks
    | "--trace" :: file :: rest -> parse (`Trace file :: checks) rest
    | "--metrics" :: file :: rest -> parse (`Metrics file :: checks) rest
    | "--telemetry" :: file :: rest -> parse (`Telemetry file :: checks) rest
    | "--prom" :: file :: rest -> parse (`Prom file :: checks) rest
    | _ -> usage ()
  in
  let checks = parse [] (List.tl (Array.to_list Sys.argv)) in
  if checks = [] then usage ();
  let failed = ref false in
  List.iter
    (fun check ->
      let r =
        match check with
        | `Trace f -> check_trace f
        | `Metrics f -> check_metrics f
        | `Telemetry f -> check_telemetry f
        | `Prom f -> check_prom f
      in
      match r with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "obs-check: %s\n" msg;
        failed := true)
    checks;
  exit (if !failed then 1 else 0)

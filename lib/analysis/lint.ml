(** The Σ-lint driver. *)

open Chase_logic
module Variant = Chase_engine.Variant
module Verdict = Chase_termination.Verdict
module Json = Chase_obs.Jsonv

type source = {
  rules : (Tgd.t * int) list;
  egds : (Egd.t * int) list;
  facts : (Atom.t * int) list;
}

let of_program (p : Parser.located_program) =
  { rules = p.Parser.lrules; egds = p.Parser.legds; facts = p.Parser.lfacts }

type report = {
  diagnostics : Diagnostic.t list;
  verdicts : (Variant.t * Verdict.t) list;
  analysis : Analyze.t option;
}

let dedup diags =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (d : Diagnostic.t) ->
      let key =
        Diagnostic.(d.code, d.line, d.variant, d.message)
      in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    diags

let analyze ?(explain = []) ?(dataflow = false) ?standard ?budget src =
  match
    Schema_check.check ~rules:src.rules ~egds:src.egds ~facts:src.facts ()
  with
  | _ :: _ as errors ->
    (* Inconsistent schema: the deeper passes assume it away. *)
    { diagnostics = errors; verdicts = []; analysis = None }
  | [] ->
    let extra_consumers =
      List.fold_left
        (fun acc (e, _) ->
          List.fold_left
            (fun acc a -> Util.Sset.add (Atom.pred a) acc)
            acc (Egd.body e))
        Util.Sset.empty src.egds
    in
    let static =
      Rule_lint.check ~extra_consumers src.rules
      @ Graph_lint.reachability ~rules:src.rules ~facts:src.facts
    in
    let explained =
      List.map
        (fun variant ->
          let e = Explain.check ?standard ?budget ~variant src.rules in
          (e.Explain.diagnostics, (variant, e.Explain.verdict)))
        explain
    in
    let analysis =
      if dataflow then Some (Analyze.run (List.map fst src.rules)) else None
    in
    let flow_diags =
      match analysis with None -> [] | Some a -> Analyze.diagnostics a
    in
    {
      diagnostics =
        dedup
          (List.sort Diagnostic.compare_for_report
             (static @ flow_diags @ List.concat_map fst explained));
      verdicts = List.map snd explained;
      analysis;
    }

let count sev report =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = sev) report.diagnostics)

let errors = count Diagnostic.Error
let warnings = count Diagnostic.Warning
let infos = count Diagnostic.Info

let exit_code report =
  if errors report > 0 then 2 else if warnings report > 0 then 1 else 0

let summary report =
  let n = errors report and w = warnings report and i = infos report in
  if n + w + i = 0 then "clean"
  else
    let part count noun =
      if count = 0 then []
      else [ Fmt.str "%d %s%s" count noun (if count = 1 then "" else "s") ]
    in
    String.concat ", " (part n "error" @ part w "warning" @ part i "info")

let pp_human ?file fm report =
  let pp_prefix fm () =
    match file with None -> () | Some f -> Fmt.pf fm "%s: " f
  in
  List.iter (fun d -> Fmt.pf fm "%a@." (Diagnostic.pp ?file) d) report.diagnostics;
  (match report.analysis with
  | None -> ()
  | Some a -> Analyze.pp_human ?file fm a);
  List.iter
    (fun (variant, v) ->
      Fmt.pf fm "%averdict (%a): %s [%s]@." pp_prefix () Variant.pp variant
        (Verdict.answer_to_string v.Verdict.answer)
        v.Verdict.procedure)
    report.verdicts;
  Fmt.pf fm "%a%s@." pp_prefix () (summary report)

let to_json ?file report =
  let fields =
    (match file with None -> [] | Some f -> [ ("file", Json.String f) ])
    @ [
        ( "diagnostics",
          Json.List (List.map Diagnostic.to_json report.diagnostics) );
        ( "verdicts",
          Json.List
            (List.map
               (fun (variant, v) ->
                 Json.Obj
                   [
                     ("variant", Json.String (Variant.to_string variant));
                     ( "answer",
                       Json.String (Verdict.answer_to_string v.Verdict.answer) );
                     ("procedure", Json.String v.Verdict.procedure);
                     ("evidence", Json.String v.Verdict.evidence);
                   ])
               report.verdicts) );
        ( "summary",
          Json.Obj
            [
              ("errors", Json.Int (errors report));
              ("warnings", Json.Int (warnings report));
              ("infos", Json.Int (infos report));
            ] );
      ]
    @
    match report.analysis with
    | None -> []
    | Some a -> [ ("analysis", Analyze.to_json a) ]
  in
  Json.Obj fields

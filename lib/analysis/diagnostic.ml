(** Structured diagnostics for Σ-lint: stable codes, severities, source
    spans, human messages and machine-readable witnesses.  See the
    interface for the catalogue of codes. *)

open Chase_logic
module Json = Chase_obs.Jsonv

type severity =
  | Error
  | Warning
  | Info

type code =
  | E001
  | W010
  | W020
  | W021
  | I030
  | I031
  | I032
  | I033
  | I034
  | I035

let code_id = function
  | E001 -> "E001"
  | W010 -> "W010"
  | W020 -> "W020"
  | W021 -> "W021"
  | I030 -> "I030"
  | I031 -> "I031"
  | I032 -> "I032"
  | I033 -> "I033"
  | I034 -> "I034"
  | I035 -> "I035"

let code_name = function
  | E001 -> "arity-clash"
  | W010 -> "unguarded-rule"
  | W020 -> "special-edge-cycle"
  | W021 -> "realizable-cycle"
  | I030 -> "unreachable-predicate"
  | I031 -> "subsumed-rule"
  | I032 -> "unused-existential"
  | I033 -> "dead-rule"
  | I034 -> "trigger-cycle"
  | I035 -> "stratification"

let severity_of_code = function
  | E001 -> Error
  | W010 | W020 | W021 -> Warning
  | I030 | I031 | I032 | I033 | I034 | I035 -> Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let all_codes = [ E001; W010; W020; W021; I030; I031; I032; I033; I034; I035 ]

type witness =
  | Arity_uses of {
      pred : string;
      uses : (int * int) list;
    }
  | Uncovered_vars of {
      rule : int;
      vars : Term.t list;
      candidate : Atom.t option;
    }
  | Position_cycle of {
      graph : string;
      positions : (string * int) list;
    }
  | Pump of {
      start : string;
      steps : (int * int) list;
      facts : Atom.t list;
      substitution : (string * Term.t) list;
      laps : int;
    }
  | Guard_chain of {
      occurrences : Atom.t list;
      chain_length : int;
    }
  | Lasso of {
      rules : int list;
      facts : Atom.t list;
      shifted : Atom.t list;
      shift : (Term.t * Term.t) list;
      records : int;
      step : int;
    }
  | Unreachable of {
      pred : string;
      used_by : int list;
    }
  | Subsumed_by of {
      rule : int;
      by : int;
      substitution : (string * Term.t) list;
    }
  | Unused_existential of {
      rule : int;
      var : string;
      positions : (string * int) list;
    }
  | Dead_rule of {
      rule : int;
      missing : string list;
    }
  | Trigger_cycle of {
      rules : int list;
      places : (string * int) list;
    }
  | Strata_assignment of {
      strata : int list list;
      cyclic : int list option;
    }

type t = {
  code : code;
  severity : severity;
  line : int option;
  rule : string option;
  variant : Chase_engine.Variant.t option;
  message : string;
  witness : witness;
}

(** Display label of the [idx]-th rule: its name, or a positional
    ["rule#k"] (1-based, as the engine's exhaustion diagnostics). *)
let rule_label idx r =
  match Tgd.name r with "" -> Fmt.str "rule#%d" (idx + 1) | n -> n

let make code ?line ?rule ~witness message =
  { code; severity = severity_of_code code; line; rule; variant = None; message; witness }

let is_error d = d.severity = Error
let is_warning d = d.severity = Warning

let compare_for_report d1 d2 =
  let line d = Option.value d.line ~default:max_int in
  let c = Int.compare (line d1) (line d2) in
  if c <> 0 then c
  else
    let c = String.compare (code_id d1.code) (code_id d2.code) in
    if c <> 0 then c else String.compare d1.message d2.message

let pp ?file fm d =
  (match file, d.line with
  | Some f, Some ln -> Fmt.pf fm "%s:%d: " f ln
  | Some f, None -> Fmt.pf fm "%s: " f
  | None, Some ln -> Fmt.pf fm "line %d: " ln
  | None, None -> ());
  Fmt.pf fm "%s[%s] " (severity_to_string d.severity) (code_id d.code);
  Option.iter (Fmt.pf fm "(%a) " Chase_engine.Variant.pp) d.variant;
  Fmt.string fm d.message

(* --- JSON rendering ------------------------------------------------ *)

let json_term t = Json.String (Term.to_string t)
let json_atom a = Json.String (Atom.to_string a)

let json_position (p, i) = Json.Obj [ ("pred", Json.String p); ("index", Json.Int i) ]

let json_subst bindings =
  Json.Obj (List.map (fun (v, t) -> (v, json_term t)) bindings)

let witness_to_json = function
  | Arity_uses { pred; uses } ->
    Json.Obj
      [
        ("kind", Json.String "arity-uses");
        ("pred", Json.String pred);
        ( "uses",
          Json.List
            (List.map
               (fun (arity, line) ->
                 Json.Obj [ ("arity", Json.Int arity); ("line", Json.Int line) ])
               uses) );
      ]
  | Uncovered_vars { rule; vars; candidate } ->
    Json.Obj
      [
        ("kind", Json.String "uncovered-variables");
        ("rule", Json.Int rule);
        ("variables", Json.List (List.map json_term vars));
        ( "candidate",
          match candidate with None -> Json.Null | Some a -> json_atom a );
      ]
  | Position_cycle { graph; positions } ->
    Json.Obj
      [
        ("kind", Json.String "position-cycle");
        ("graph", Json.String graph);
        ("positions", Json.List (List.map json_position positions));
      ]
  | Pump { start; steps; facts; substitution; laps } ->
    Json.Obj
      [
        ("kind", Json.String "pump");
        ("start", Json.String start);
        ( "steps",
          Json.List
            (List.map
               (fun (r, h) ->
                 Json.Obj [ ("rule", Json.Int r); ("head", Json.Int h) ])
               steps) );
        ("facts", Json.List (List.map json_atom facts));
        ("substitution", json_subst substitution);
        ("laps", Json.Int laps);
      ]
  | Guard_chain { occurrences; chain_length } ->
    Json.Obj
      [
        ("kind", Json.String "guard-chain");
        ("occurrences", Json.List (List.map json_atom occurrences));
        ("chain_length", Json.Int chain_length);
      ]
  | Lasso { rules; facts; shifted; shift; records; step } ->
    Json.Obj
      [
        ("kind", Json.String "lasso");
        ("rules", Json.List (List.map (fun r -> Json.Int r) rules));
        ("facts", Json.List (List.map json_atom facts));
        ("shifted", Json.List (List.map json_atom shifted));
        ( "shift",
          Json.List
            (List.map
               (fun (x, y) -> Json.List [ Json.String (Term.to_string x); Json.String (Term.to_string y) ])
               shift) );
        ("records", Json.Int records);
        ("step", Json.Int step);
      ]
  | Unreachable { pred; used_by } ->
    Json.Obj
      [
        ("kind", Json.String "unreachable-predicate");
        ("pred", Json.String pred);
        ("used_by", Json.List (List.map (fun i -> Json.Int i) used_by));
      ]
  | Subsumed_by { rule; by; substitution } ->
    Json.Obj
      [
        ("kind", Json.String "subsumed-by");
        ("rule", Json.Int rule);
        ("by", Json.Int by);
        ("substitution", json_subst substitution);
      ]
  | Unused_existential { rule; var; positions } ->
    Json.Obj
      [
        ("kind", Json.String "unused-existential");
        ("rule", Json.Int rule);
        ("variable", Json.String var);
        ("positions", Json.List (List.map json_position positions));
      ]
  | Dead_rule { rule; missing } ->
    Json.Obj
      [
        ("kind", Json.String "dead-rule");
        ("rule", Json.Int rule);
        ("missing", Json.List (List.map (fun p -> Json.String p) missing));
      ]
  | Trigger_cycle { rules; places } ->
    Json.Obj
      [
        ("kind", Json.String "trigger-cycle");
        ("rules", Json.List (List.map (fun i -> Json.Int i) rules));
        ("places", Json.List (List.map json_position places));
      ]
  | Strata_assignment { strata; cyclic } ->
    Json.Obj
      [
        ("kind", Json.String "strata");
        ( "strata",
          Json.List
            (List.map
               (fun g -> Json.List (List.map (fun i -> Json.Int i) g))
               strata) );
        ( "cyclic",
          match cyclic with
          | None -> Json.Null
          | Some g -> Json.List (List.map (fun i -> Json.Int i) g) );
      ]

let to_json d =
  Json.Obj
    ([
      ("code", Json.String (code_id d.code));
      ("name", Json.String (code_name d.code));
      ("severity", Json.String (severity_to_string d.severity));
      ("line", match d.line with None -> Json.Null | Some n -> Json.Int n);
      ("rule", match d.rule with None -> Json.Null | Some r -> Json.String r);
    ]
    @ (match d.variant with
      | None -> []
      | Some v -> [ ("variant", Json.String (Chase_engine.Variant.to_string v)) ])
    @ [
      ("message", Json.String d.message);
      ("witness", witness_to_json d.witness);
    ])

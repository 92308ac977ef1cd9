(** Verdict explanation: the {!Chase_termination.Decide} verdict, with
    the divergence witness it carries rendered as a diagnostic. *)

open Chase_logic
module Critical_linear = Chase_acyclicity.Critical_linear
module Verdict = Chase_termination.Verdict

type t = {
  verdict : Verdict.t;
  diagnostics : Diagnostic.t list;
}

let line_of_rule lrules idx =
  match List.nth_opt lrules idx with Some (_, line) -> Some line | None -> None

let label_of_rule lrules idx =
  match List.nth_opt lrules idx with
  | Some (r, _) -> Some (Diagnostic.rule_label idx r)
  | None -> None

(* ---- simple linear: the dangerous cycle IS the cause (Theorem 1) ---- *)

let cycle_diagnostic graph positions =
  let msg =
    Fmt.str
      "the %s graph has a cycle through a special edge: %a — on simple \
       linear rules every such cycle is realizable (Theorem 1), so the \
       chase diverges"
      graph
      (Util.pp_list " -> " Chase_acyclicity.Dep_graph.pp_position)
      positions
  in
  Diagnostic.make Diagnostic.W020
    ~witness:(Diagnostic.Position_cycle { graph; positions })
    msg

(* ---- linear: confirmed pump of the critical procedure (Theorem 2) ---- *)

let pump_diagnostic lrules rules cert =
  let real = Critical_linear.realize rules cert in
  let steps =
    List.map
      (fun (tr : Critical_linear.transition) -> (tr.rule_idx, tr.head_idx))
      cert.Critical_linear.cycle
  in
  let rule_idxs = List.sort_uniq compare (List.map fst steps) in
  let first_idx = List.hd (List.map fst steps) in
  let msg =
    Fmt.str
      "confirmed pump through rule%s %a (replayed %d laps); one lap with \
       fresh nulls: %a"
      (match rule_idxs with [ _ ] -> "" | _ -> "s")
      (Util.pp_list ", " Fmt.string)
      (List.filter_map (label_of_rule lrules) rule_idxs)
      cert.Critical_linear.laps_checked
      (Util.pp_list " -> " Atom.pp)
      real.Critical_linear.facts
  in
  Diagnostic.make Diagnostic.W021
    ?line:(line_of_rule lrules first_idx)
    ?rule:(label_of_rule lrules first_idx)
    ~witness:
      (Diagnostic.Pump
         {
           start = Pattern.to_string cert.Critical_linear.start;
           steps;
           facts = real.Critical_linear.facts;
           substitution = Subst.to_list real.Critical_linear.first_subst;
           laps = cert.Critical_linear.laps_checked;
         })
    msg

(* ---- guarded: recurring cloud type along a guard chain (Theorem 4) ---- *)

let guard_chain_diagnostic occurrences chain_length =
  let shown = List.filteri (fun i _ -> i < 4) occurrences in
  let msg =
    Fmt.str
      "recurring cloud type along one guard chain of the critical instance \
       (%d occurrences, chain length %d): %a%s — the branch is \
       self-similar, so the chase diverges (Theorem 4)"
      (List.length occurrences)
      chain_length
      (Util.pp_list " -> " Atom.pp)
      shown
      (if List.length occurrences > 4 then ", ..." else "")
  in
  Diagnostic.make Diagnostic.W021
    ~witness:(Diagnostic.Guard_chain { occurrences; chain_length })
    msg

(* ---- any chasing procedure: a certified lasso (DESIGN.md §3.13) ---- *)

let lasso_diagnostic lrules rules (l : Chase_engine.Lasso.t) =
  let idxs = List.map (fun i -> l.records.(i).Chase_engine.Lasso.rule) l.lasso in
  let facts, shifted = Chase_engine.Lasso.body_facts rules l in
  let msg =
    Fmt.str
      "certified lasso at step %d of the critical instance's chase: rule%s %a \
       fire%s again on %a with every null shifted, and each shift is a new \
       trigger (%d derivation records checked), so the chase diverges"
      l.step
      (match idxs with [ _ ] -> "" | _ -> "s")
      (Util.pp_list ", " Fmt.string)
      (List.filter_map (label_of_rule lrules) idxs)
      (match idxs with [ _ ] -> "s" | _ -> "")
      (Util.pp_list ", " Atom.pp) shifted
      (Array.length l.records)
  in
  let first = List.hd idxs in
  Diagnostic.make Diagnostic.W021
    ?line:(line_of_rule lrules first)
    ?rule:(label_of_rule lrules first)
    ~witness:
      (Diagnostic.Lasso
         {
           rules = idxs;
           facts;
           shifted;
           shift = l.shift;
           records = Array.length l.records;
           step = l.step;
         })
    msg

let render lrules rules = function
  | Verdict.Dangerous_cycle { graph; positions } ->
    cycle_diagnostic graph positions
  | Verdict.Linear_pump cert -> pump_diagnostic lrules rules cert
  | Verdict.Guard_chain { occurrences; chain_length } ->
    guard_chain_diagnostic occurrences chain_length
  | Verdict.Lasso l -> lasso_diagnostic lrules rules l

let check ?standard ?(budget = Chase_termination.Guarded.default_budget)
    ~variant lrules =
  let rules = List.map fst lrules in
  let verdict = Chase_termination.Decide.check ?standard ~budget ~variant rules in
  {
    verdict;
    diagnostics =
      Option.to_list
        (Option.map
           (fun w -> { (render lrules rules w) with Diagnostic.variant = Some variant })
           verdict.witness);
  }

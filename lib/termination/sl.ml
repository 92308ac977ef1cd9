(** Termination for simple linear TGDs — Theorem 1.

    For a simple linear set Σ:
    - the oblivious chase terminates on all databases iff Σ is richly
      acyclic, and
    - the semi-oblivious chase terminates on all databases iff Σ is weakly
      acyclic,

    so the decision procedure is exactly the corresponding acyclicity test
    — a reachability question on the (extended) dependency graph, which is
    where the NL upper bound of Theorem 3(1) comes from. *)

open Chase_engine
open Chase_acyclicity

let require_simple_linear rules =
  if not (Chase_classes.Classify.is_simple_linear rules) then
    invalid_arg "Sl.check: rule set is not simple linear"

let pp_cycle fm cycle =
  Fmt.pf fm "%a"
    (Chase_logic.Util.pp_list " -> " Dep_graph.pp_position)
    cycle

let check ~variant rules =
  require_simple_linear rules;
  let procedure, graph, cycle =
    match (variant : Variant.t) with
    | Oblivious -> ("rich-acyclicity", "extended-dependency", Rich.check rules)
    | Semi_oblivious -> ("weak-acyclicity", "dependency", Weak.check rules)
    | Restricted ->
      invalid_arg "Sl.check: Theorem 1 covers the (semi-)oblivious chase only"
  in
  let graph_name = String.map (function '-' -> ' ' | c -> c) graph in
  match cycle with
  | None ->
    Verdict.terminates ~procedure
      ~evidence:
        (Fmt.str "the %s graph has no cycle through a special edge" graph_name)
  | Some positions ->
    Verdict.diverges
      ~witness:(Verdict.Dangerous_cycle { graph; positions })
      ~procedure
      ~evidence:
        (Fmt.str
           "dangerous cycle in the %s graph: %a — on simple linear rules \
            every such cycle is realizable (Thm 1)"
           graph_name pp_cycle positions)
      ()

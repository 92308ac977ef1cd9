(** Provenance of chase-produced facts: one record per trigger application
    that added facts, shared by all of them, holding the compiled rule and
    the slots it bound.  The certificates of [Chase_termination] are found
    by walking these records. *)

open Chase_logic

type t = { rule : Trigger.rule; vals : Term.t array; depth : int; step : int }

let rule d = d.rule.Trigger.tgd
let hom d = Trigger.to_subst d.rule d.vals
let parents d = Array.to_list (Array.map (Template.instantiate d.vals) d.rule.Trigger.body)

let guard_parent d =
  Option.map (fun g -> Template.instantiate d.vals d.rule.Trigger.body.(g)) d.rule.Trigger.guard

let created_nulls d = Trigger.nulls d.rule d.vals
let depth d = d.depth
let step d = d.step

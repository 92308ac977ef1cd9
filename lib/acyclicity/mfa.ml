(** Model-faithful acyclicity (Cuenca Grau, Horrocks, Krötzsch, Kupke,
    Magka, Motik, Wang — KR 2012 / JAIR 2013).

    MFA is the strongest of the standard sufficient conditions for
    semi-oblivious (skolem) chase termination: skolemize the rules, chase
    the critical instance, and declare failure as soon as a {e cyclic}
    functional term appears — a null whose skolem-term structure nests the
    same function symbol f_{σ,z} inside itself.  If the chase completes
    without ever building a cyclic term, only finitely many term shapes
    exist for any database, so the semi-oblivious chase terminates
    universally:  WA ⊆ JA ⊆ MFA ⊆ CT^so.

    The semi-oblivious chase is the skolem chase (Grahne & Onet, "Anatomy
    of the chase"), so the chase we run is the engine's own
    semi-oblivious run of the critical instance.  Instead of materializing
    skolem terms, an [on_trigger] hook annotates every null with the
    {e set} of function symbols occurring in its term tree: the union of
    the symbol sets of the frontier nulls it was built from, plus its own
    creating symbol (rule index, existential variable).  A null is cyclic
    exactly when its creating symbol already occurs among its ancestors'
    symbols.

    Checking MFA is itself 2EXPTIME-complete; we keep a trigger budget as
    an engineering safeguard and report [`Unknown] if it is ever hit. *)

open Chase_logic
open Chase_engine

type answer =
  [ `Mfa  (** the critical chase completed with no cyclic term *)
  | `Not_mfa of string  (** a cyclic functional term, pretty-printed *)
  | `Unknown of string  (** budget exhausted *)
  ]

module Sym_set = Set.Make (struct
  type t = int * string  (* rule index, existential variable *)

  let compare = compare
end)

type watch = {
  symbols : (int, Sym_set.t) Hashtbl.t;  (** by null stamp *)
  mutable cyclic : string option;
}

let watch () = { symbols = Hashtbl.create 256; cyclic = None }
let first_cyclic w = w.cyclic

(* The engine hands over the nulls an application invented in slot order,
   which is existential-name order ([Trigger.compile]). *)
let observe w ~step:_ ~rule_index ~depth:_ ~created_nulls r sub _added =
  let inherited =
    Util.Sset.fold
      (fun v acc ->
        match Subst.find_opt v sub with
        | Some (Term.Null n) -> (
          match Hashtbl.find_opt w.symbols n with
          | Some s -> Sym_set.union s acc
          | None -> acc)
        | Some (Term.Const _) | Some (Term.Var _) | None -> acc)
      (Tgd.frontier r) Sym_set.empty
  in
  List.iter2
    (fun z n ->
      let sym = (rule_index, z) in
      if Sym_set.mem sym inherited && w.cyclic = None then
        w.cyclic <-
          Some
            (Fmt.str
               "cyclic term: f_(%s,%s) nested within itself under trigger %a \
                of rule %a"
               (Tgd.name r) z Subst.pp sub Tgd.pp r);
      Hashtbl.replace w.symbols n (Sym_set.add sym inherited))
    (Util.Sset.elements (Tgd.existentials r))
    created_nulls

let default_budget = 100_000

exception Cyclic

let check ?(standard = false) ?(budget = default_budget) rules =
  let w = watch () in
  let on_trigger ~step ~rule_index ~depth ~created_nulls r sub added =
    observe w ~step ~rule_index ~depth ~created_nulls r sub added;
    if w.cyclic <> None then raise_notrace Cyclic
  in
  let config =
    {
      Engine.variant = Variant.Semi_oblivious;
      limits = Limits.make ~max_triggers:budget ();
    }
  in
  let crit = Instance.to_list (Critical.of_rules ~standard rules) in
  match Engine.run ~config ~on_trigger rules crit with
  | exception Cyclic -> `Not_mfa (Option.get w.cyclic)
  | { Engine.status = Engine.Terminated; _ } -> `Mfa
  | { Engine.status = Engine.Exhausted _; _ } ->
    `Unknown (Fmt.str "MFA chase budget of %d triggers exhausted" budget)

let is_mfa ?standard ?budget rules =
  match check ?standard ?budget rules with
  | `Mfa -> true
  | `Not_mfa _ | `Unknown _ -> false

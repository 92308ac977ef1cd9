(** Termination of the (semi-)oblivious chase for guarded TGDs
    (Theorem 4).

    Guardedness makes the chase of the critical instance a forest of
    bounded branching: every trigger's body maps into the {e cloud} of one
    existing fact (the guard image) — the set of facts whose terms are
    drawn from that fact's terms and the constants — so every produced fact
    hangs off its guard image.  The subtree below a fact is determined by
    the fact's {e type}: its atom together with its cloud, up to a
    constant-fixing renaming of nulls.  Consequently:

    - if the chase of the critical instance stops, Σ terminates on every
      database (critical-instance theorem) — an exact answer;
    - if along one branch of the forest the same type recurs while fresh
      nulls keep being created, the branch is self-similar and the chase
      runs forever.

    [check] runs the chase of the critical instance
    ({!Simulation.chase}, under the caller's budget, limits, watchdog and
    obs), which stops at the first certified lasso (DESIGN.md §3.13); on
    exhaustion it searches the derivation forest for a recurring-type
    pump.  To guard against clouds
    that were still growing when the snapshot was taken, a pump is only
    reported when the type recurs at least [min_occurrences] times along
    one guard chain and every link of the chain carries nulls younger than
    the previous occurrence (the newness condition that makes the replay
    produce new triggers forever).  This realizes the paper's alternating
    2EXPTIME procedure as a deterministic certificate search; see
    DESIGN.md §3.3 and §6. *)

open Chase_logic
open Chase_engine

let require_guarded rules =
  if not (Chase_classes.Classify.is_guarded rules) then
    invalid_arg "Guarded.check: rule set is not guarded"

(* ------------------------------------------------------------------ *)
(* Canonical clouds                                                    *)
(* ------------------------------------------------------------------ *)

(* The canonical type of a fact [a] in instance [ins]: rename the distinct
   terms of [a] to local indices (constants stay themselves), collect every
   fact whose terms are among [a]'s terms and the constants, rename, sort.
   Two facts with equal canonical types have isomorphic neighbourhoods, so
   the chase develops identically below them. *)

type canon_term =
  | C_const of string
  | C_local of int  (** i-th distinct term of the fact, a null *)

type canon_atom = string * canon_term list

type cloud_type = {
  self : canon_atom;
  cloud : canon_atom list;  (** sorted *)
}

let canon_term_of local t =
  match t with
  | Term.Const c -> C_const c
  | Term.Null _ -> C_local (Term.Map.find t local)
  | Term.Var _ -> invalid_arg "Guarded: variable in fact"

(** Local renaming of a fact: distinct null arguments, in order of first
    occurrence, become [C_local 0], [C_local 1], … *)
let local_renaming a =
  let local = ref Term.Map.empty in
  let next = ref 0 in
  Array.iter
    (fun t ->
      if Term.is_null t && not (Term.Map.mem t !local) then begin
        local := Term.Map.add t !next !local;
        incr next
      end)
    (Atom.args a);
  !local

let canon_atom_of local a =
  (Atom.pred a, List.map (canon_term_of local) (Atom.term_list a))

(** Facts of [ins] whose terms are all among [terms ∪ constants].  The
    all-constant facts are supplied pre-computed in [const_atoms] since
    they belong to every cloud. *)
let cloud_atoms ins ~const_atoms ~nulls =
  let in_scope t = Term.is_const t || Term.Set.mem t nulls in
  let candidates =
    Term.Set.fold
      (fun t acc ->
        List.fold_left
          (fun acc a -> Atom.Set.add a acc)
          acc (Instance.atoms_containing ins t))
      nulls Atom.Set.empty
  in
  Atom.Set.fold
    (fun a acc ->
      if Array.for_all in_scope (Atom.args a) then a :: acc else acc)
    candidates const_atoms

let type_of ins ~const_atoms a =
  let local = local_renaming a in
  let nulls =
    Term.Map.fold (fun t _ acc -> Term.Set.add t acc) local Term.Set.empty
  in
  let cloud = cloud_atoms ins ~const_atoms ~nulls in
  {
    self = canon_atom_of local a;
    cloud = List.sort compare (List.map (canon_atom_of local) cloud);
  }

(* ------------------------------------------------------------------ *)
(* Pump detection in the derivation forest                             *)
(* ------------------------------------------------------------------ *)

type pump = {
  occurrences : Atom.t list;  (** same-type facts along one guard chain *)
  chain_length : int;
}

(** The guard chain of [a]: a, guard parent of a, … up to a database fact. *)
let guard_chain result a =
  let rec up acc a =
    match Option.bind (Engine.derivation result a) Derivation.guard_parent with
    | Some g -> up (a :: acc) g
    | None -> a :: acc
  in
  up [] a  (* root first *)

(** Step at which each null was created, from the derivation records. *)
let null_birth (result : Engine.result) =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (Option.iter (fun d ->
         List.iter (fun n -> Hashtbl.replace tbl n (Derivation.step d)) (Derivation.created_nulls d)))
    result.Engine.derivations;
  tbl

let step_of result a =
  match Engine.derivation result a with Some d -> Derivation.step d | None -> 0

(** [has_young_null births since a]: some argument of [a] is a null born
    strictly after step [since]. *)
let has_young_null births since a =
  Array.exists
    (fun t ->
      match t with
      | Term.Null n -> (
        match Hashtbl.find_opt births n with
        | Some s -> s > since
        | None -> false)
      | Term.Const _ | Term.Var _ -> false)
    (Atom.args a)

(* A pump is [min_occurrences] same-type facts on one of the guard chains
   ending at the [tips] deepest facts. *)
let min_occurrences = 3
let tips = 8

(** Search one root-to-leaf chain for [min_occurrences] facts of equal
    type such that between consecutive occurrences every chain fact
    carries a null younger than the previous occurrence. *)
let pump_on_chain ins ~const_atoms ~births ~result chain =
  (* Group chain positions by type. *)
  let types = List.map (fun a -> (a, type_of ins ~const_atoms a)) chain in
  let module M = Map.Make (struct
    type t = cloud_type

    let compare = compare
  end) in
  let groups =
    List.fold_left
      (fun m (a, ty) ->
        M.update ty (fun o -> Some (a :: Option.value o ~default:[])) m)
      M.empty types
  in
  let chain_arr = Array.of_list chain in
  let index_of =
    let tbl = Atom.Tbl.create 64 in
    Array.iteri (fun i a -> Atom.Tbl.replace tbl a i) chain_arr;
    fun a -> Atom.Tbl.find tbl a
  in
  let newness_ok a b =
    (* every chain fact strictly after [a] up to [b] has a null younger
       than [a]'s creation step *)
    let ia = index_of a and ib = index_of b in
    let since = step_of result chain_arr.(ia) in
    let ok = ref true in
    for i = ia + 1 to ib do
      if not (has_young_null births since chain_arr.(i)) then ok := false
    done;
    !ok
  in
  M.fold
    (fun _ occs acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let occs = List.sort (fun a b -> Int.compare (index_of a) (index_of b)) occs in
        if List.length occs >= min_occurrences then begin
          let rec consecutive_ok = function
            | a :: (b :: _ as rest) -> newness_ok a b && consecutive_ok rest
            | [ _ ] | [] -> true
          in
          if consecutive_ok occs then
            Some { occurrences = occs; chain_length = Array.length chain_arr }
          else None
        end
        else None)
    groups None

(** Deepest facts of the run, used as chain tips. *)
let deepest_facts (result : Engine.result) k =
  let all =
    Instance.fold
      (fun a acc ->
        match Engine.derivation result a with
        | Some d -> (Derivation.depth d, a) :: acc
        | None -> acc)
      result.Engine.instance []
  in
  let sorted = List.sort (fun (d1, _) (d2, _) -> Int.compare d2 d1) all in
  List.filteri (fun i _ -> i < k) sorted |> List.map snd

let find_pump ?(obs = Chase_obs.Obs.disabled) (result : Engine.result) =
  let module Obs = Chase_obs.Obs in
  let ins = result.Engine.instance in
  let const_atoms =
    Instance.fold
      (fun a acc -> if Atom.is_ground a then a :: acc else acc)
      ins []
  in
  let births = null_birth result in
  let rec try_tips = function
    | [] -> None
    | tip :: rest -> (
      let chain = guard_chain result tip in
      if Obs.enabled obs then begin
        Obs.incr obs "guarded.pump.chains";
        Obs.incr obs ~by:(List.length chain) "guarded.pump.nodes"
      end;
      match pump_on_chain ins ~const_atoms ~births ~result chain with
      | Some p -> Some p
      | None -> try_tips rest)
  in
  try_tips (deepest_facts result tips)

(* ------------------------------------------------------------------ *)
(* The checker                                                         *)
(* ------------------------------------------------------------------ *)

let default_budget = 20_000

let check ?standard ?(budget = default_budget) ?limits ?watchdog
    ?(obs = Chase_obs.Obs.disabled) ~variant rules =
  require_guarded rules;
  if Chase_classes.Classify.is_full rules then
    Verdict.terminates ~procedure:"guarded-types"
      ~evidence:
        "every rule is full (no existential variables): the chase can only \
         create finitely many facts over the database terms"
  else begin
    match Simulation.chase ?standard ~budget ?limits ?watchdog ~obs ~variant rules with
    | Simulation.Closed result ->
      Verdict.terminates ~procedure:"guarded-types"
        ~evidence:
          (Fmt.str
             "%a chase of the critical instance closed after %d triggers, %d \
              facts"
             Variant.pp variant result.Engine.triggers_applied
             (Instance.cardinal result.Engine.instance))
    | Simulation.Lasso l ->
      Verdict.diverges ~witness:(Verdict.Lasso l) ~procedure:"guarded-types"
        ~evidence:(Simulation.lasso_evidence ~variant rules l) ()
    | Simulation.Exhausted e -> (
      match
        Option.bind e.partial (fun result ->
            Chase_obs.Obs.with_span obs "pump-search" (fun () -> find_pump ~obs result))
      with
      | Some pump ->
        let shown = List.filteri (fun i _ -> i < 4) pump.occurrences in
        let elided = List.length pump.occurrences - List.length shown in
        Verdict.diverges
          ~witness:
            (Verdict.Guard_chain
               {
                 occurrences = pump.occurrences;
                 chain_length = pump.chain_length;
               })
          ~procedure:"guarded-types"
          ~evidence:
            (Fmt.str
               "recurring cloud type along one guard chain (%d occurrences, \
                chain length %d): %a%s"
               (List.length pump.occurrences)
               pump.chain_length
               (Util.pp_list " ⇝ " Atom.pp)
               shown
               (if elided > 0 then Fmt.str " ⇝ … (%d more)" elided else ""))
          ()
      | None ->
        Verdict.unknown ~procedure:"guarded-types"
          ~evidence:
            (Fmt.str "%a and no pump found — %s" Limits.pp_breach
               e.reason.Limits.Exhaustion.breach
               (Limits.Exhaustion.diagnosis e.reason)))
  end

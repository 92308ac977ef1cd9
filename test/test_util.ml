(** Shared helpers for the test suite. *)

open Chase

let parse = Parser.parse_rules_exn
let parse_rule = Parser.parse_rule_exn
let parse_facts = Parser.parse_database_exn
let fact = Parser.parse_fact_exn

let atom_testable = Alcotest.testable Atom.pp Atom.equal
let term_testable = Alcotest.testable Term.pp Term.equal
let pattern_testable = Alcotest.testable Pattern.pp Pattern.equal

let check_atom = Alcotest.check atom_testable
let check_term = Alcotest.check term_testable

(** Chase the critical instance with a budget; true iff it terminated. *)
let crit_chase_terminates ?(standard = false) ?(budget = 10_000) variant rules =
  let crit = Critical.of_rules ~standard rules in
  let config = { Engine.variant; limits = Limits.of_budget budget } in
  let result = Engine.run ~config rules (Instance.to_list crit) in
  result.Engine.status = Engine.Terminated

(** Run the chase on an explicit database; [limits] overrides the
    budget-derived defaults. *)
let chase ?(variant = Variant.Oblivious) ?(budget = 10_000) ?limits rules db =
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  Engine.run ~config:{ Engine.variant; limits } rules db

(** True iff the run stopped on a breached limit. *)
let exhausted (result : Engine.result) = Engine.exhausted result

(** The exhaustion reason of a degraded run; fails the test on a
    terminated one. *)
let exhaustion_exn (result : Engine.result) =
  match Engine.exhaustion result with
  | Some reason -> reason
  | None -> Alcotest.fail "expected an exhausted run"

let sorted_facts result = Instance.to_sorted_list result.Engine.instance

(** Read a shipped program: a corpus file from data/, or from [dir]. *)
let read_data ?(dir = "data") name =
  (* cwd differs between `dune runtest` (test dir) and `dune exec` (root) *)
  let candidates =
    List.map
      (fun root -> Filename.concat (Filename.concat root dir) name)
      [ ".."; "."; "../.." ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail ("data file not found: " ^ Filename.concat dir name)
  | Some path ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(** Run [f] with the process-wide matcher set to [m], restoring the
    previous one afterwards. *)
let with_matcher m f =
  let saved = Hom.matcher () in
  Hom.set_matcher m;
  Fun.protect ~finally:(fun () -> Hom.set_matcher saved) f

(** Compare instance contents up to null renaming: both embed in each
    other via constant-fixing homomorphisms. *)
let hom_equivalent i1 i2 =
  Option.is_some (Hom.instance_hom i1 i2)
  && Option.is_some (Hom.instance_hom i2 i1)

(** [contains hay needle]: [needle] occurs in [hay]. *)
let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

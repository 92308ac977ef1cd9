(** Structured diagnostics for Σ-lint.

    Every diagnostic carries a stable code, a severity derived from the
    code, an optional source span (the 1-based line the parser recorded
    for the offending statement), a human message, and a machine-readable
    {e witness} — the structure that makes the verdict checkable rather
    than merely readable.

    Codes:
    - [E001] arity-clash — a predicate used with two different arities
      across rules and/or the database;
    - [W010] unguarded-rule — no single body atom covers all body
      variables (witness: the uncovered variables);
    - [W020] special-edge-cycle — a dangerous cycle in the (extended)
      dependency graph (witness: the position path);
    - [W021] realizable-cycle — a concretely confirmed pump of the
      critical-instance analysis (witness: the cycle steps, the replayed
      fact chain and the realizing substitution), a certified lasso of
      the critical instance's chase (witness: the lasso's body facts,
      their shifted images and the shift) or a recurring guard-chain
      type;
    - [I030] unreachable-predicate — a body predicate the given database
      can never populate;
    - [I031] subsumed-rule — a rule logically implied by an earlier one;
    - [I032] unused-existential — an existential variable whose invented
      values no rule body ever reads;
    - [I033] dead-rule — a rule that can never fire on the given
      database;
    - [I034] trigger-cycle — the rule set is not super-weakly acyclic:
      a cycle of the Σ-flow trigger relation (witness: the rules around
      the cycle and the places where each invented null lands);
    - [I035] stratification — the may-trigger stratum assignment, and
      whether every stratum is weakly acyclic (both only emitted by the
      opt-in [--analyze] battery). *)

open Chase_logic

type severity =
  | Error  (** the rule set is malformed; the engine refuses it *)
  | Warning  (** suspicious; termination or performance is at risk *)
  | Info  (** hygiene: redundancy, dead weight *)

type code =
  | E001  (** arity-clash *)
  | W010  (** unguarded-rule *)
  | W020  (** special-edge-cycle *)
  | W021  (** realizable-cycle *)
  | I030  (** unreachable-predicate *)
  | I031  (** subsumed-rule *)
  | I032  (** unused-existential *)
  | I033  (** dead-rule *)
  | I034  (** trigger-cycle *)
  | I035  (** stratification *)

val code_id : code -> string
(** ["E001"], ["W010"], … *)

val code_name : code -> string
(** The stable slug: ["arity-clash"], ["unguarded-rule"], … *)

val severity_of_code : code -> severity
val severity_to_string : severity -> string
val all_codes : code list

(** The machine-readable witness attached to each diagnostic. *)
type witness =
  | Arity_uses of {
      pred : string;
      uses : (int * int) list;  (** (arity, line of first use) per arity *)
    }
  | Uncovered_vars of {
      rule : int;  (** rule index in file order *)
      vars : Term.t list;  (** variables no single body atom covers *)
      candidate : Atom.t option;  (** the best guard candidate *)
    }
  | Position_cycle of {
      graph : string;  (** ["dependency"] or ["extended-dependency"] *)
      positions : (string * int) list;  (** the cycle, as visited *)
    }
  | Pump of {
      start : string;  (** the start pattern, rendered *)
      steps : (int * int) list;  (** (rule index, head index) per step *)
      facts : Atom.t list;  (** one replayed lap, start fact first *)
      substitution : (string * Term.t) list;
          (** realizing substitution of the first step *)
      laps : int;  (** laps concretely replayed by the checker *)
    }
  | Guard_chain of {
      occurrences : Atom.t list;  (** same-type facts along a guard chain *)
      chain_length : int;
    }
  | Lasso of {
      rules : int list;  (** rule index of each lasso trigger *)
      facts : Atom.t list;  (** the lasso triggers' body facts *)
      shifted : Atom.t list;  (** their images under the shift h *)
      shift : (Term.t * Term.t) list;  (** h *)
      records : int;  (** derivation records in the certificate *)
      step : int;  (** the chase step at which it was accepted *)
    }
  | Unreachable of {
      pred : string;
      used_by : int list;  (** indices of the rules reading it *)
    }
  | Subsumed_by of {
      rule : int;
      by : int;
      substitution : (string * Term.t) list;
          (** maps the subsuming rule's variables into the subsumed one *)
    }
  | Unused_existential of {
      rule : int;
      var : string;
      positions : (string * int) list;  (** where its nulls land *)
    }
  | Dead_rule of {
      rule : int;
      missing : string list;  (** the unpopulatable body predicates *)
    }
  | Trigger_cycle of {
      rules : int list;  (** rule indices around the cycle, in order *)
      places : (string * int) list;
          (** per hop, the (pred, position) where the invented null
              lands *)
    }
  | Strata_assignment of {
      strata : int list list;
          (** rule indices per stratum, topological order *)
      cyclic : int list option;
          (** the first stratum that is not weakly acyclic, if any *)
    }

type t = {
  code : code;
  severity : severity;
  line : int option;  (** 1-based source line, when the span is known *)
  rule : string option;  (** offending rule's name or positional label *)
  variant : Chase_engine.Variant.t option;
      (** the chase variant whose verdict an explain diagnostic
          ([W020]/[W021]) explains; [None] for static findings *)
  message : string;
  witness : witness;
}

val rule_label : int -> Tgd.t -> string
(** Display label of the [idx]-th rule: its name, or a positional
    ["rule#k"] (1-based). *)

val make :
  code -> ?line:int -> ?rule:string -> witness:witness -> string -> t
(** [make code ~witness message]; the severity comes from the code and
    [variant] is [None] ({!Explain} sets it). *)

val is_error : t -> bool
val is_warning : t -> bool

val compare_for_report : t -> t -> int
(** Source order: by line (unspanned last), then code, then message. *)

val pp : ?file:string -> Format.formatter -> t -> unit
(** One human line: [file:line: severity[CODE] message], with
    [(variant) ] before the message when the diagnostic has one. *)

val witness_to_json : witness -> Chase_obs.Jsonv.t
val to_json : t -> Chase_obs.Jsonv.t

(** Verdicts of the termination checkers: the answer, the procedure that
    produced it, a human-readable account of the evidence, and — for the
    divergence proofs the exact procedures compute — the proof itself.
    [Diverges] and [Terminates] are only produced with evidence; a checker
    that runs out of budget or applicable theory answers [Unknown]. *)

type answer =
  | Terminates
  | Diverges
  | Unknown

(** The divergence proof a deciding procedure found, kept so that a
    consumer (the explainer's diagnostics, a certificate checker) reads
    the proof behind the verdict instead of searching for it again. *)
type witness =
  | Dangerous_cycle of {
      graph : string;  (** ["dependency"] or ["extended-dependency"] *)
      positions : (string * int) list;  (** the cycle, as visited *)
    }
      (** {!Sl.check}: a cycle through a special edge of the (extended)
          dependency graph — on simple linear rules every such cycle is
          realizable (Theorem 1). *)
  | Linear_pump of Chase_acyclicity.Critical_linear.certificate
      (** {!Linear.check}: the confirmed pump of the critical-instance
          procedure (Theorem 2). *)
  | Guard_chain of {
      occurrences : Chase_logic.Atom.t list;
          (** same-type facts along one guard chain *)
      chain_length : int;
    }
      (** {!Guarded.check}: a recurring cloud type along a guard chain of
          the critical instance's chase (Theorem 4). *)
  | Lasso of Chase_engine.Lasso.t
      (** {!Simulation.chase}: a lasso of the critical instance's chase
          that {!Chase_engine.Lasso.check} accepts (DESIGN.md §3.13);
          carried by the [Diverges] verdicts of {!Simulation.check},
          {!Guarded.check} and {!Linear.check} that it proves. *)

type t = {
  answer : answer;
  procedure : string;  (** e.g. "rich-acyclicity", "critical-linear" *)
  evidence : string;
  witness : witness option;
      (** [Some] only on [Diverges] verdicts; every other verdict
          carries none.  The witness never shows in {!pp}. *)
}

val make : answer -> procedure:string -> evidence:string -> t
(** A verdict without a witness. *)

val terminates : procedure:string -> evidence:string -> t

val diverges :
  ?witness:witness -> procedure:string -> evidence:string -> unit -> t
(** [witness] is the divergence proof, when the procedure has one. *)

val unknown : procedure:string -> evidence:string -> t

val answer : t -> answer
val is_terminating : t -> bool
val is_diverging : t -> bool
val is_unknown : t -> bool

val answer_to_string : answer -> string

val pp : Format.formatter -> t -> unit
(** The answer, the procedure and the evidence. *)

val to_string : t -> string

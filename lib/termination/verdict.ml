(** Verdicts of the termination checkers.

    A verdict records the answer, which procedure produced it, a
    human-readable account of the evidence (an acyclicity certificate, a
    pumping cycle, a closed chase, …) and, for the divergence proofs of
    the exact procedures, the proof itself as a typed witness.
    [Diverges] and [Terminates] are only produced with evidence; a
    checker that runs out of budget or of applicable theory answers
    [Unknown]. *)

type answer =
  | Terminates
  | Diverges
  | Unknown

type witness =
  | Dangerous_cycle of {
      graph : string;
      positions : (string * int) list;
    }
  | Linear_pump of Chase_acyclicity.Critical_linear.certificate
  | Guard_chain of {
      occurrences : Chase_logic.Atom.t list;
      chain_length : int;
    }
  | Lasso of Chase_engine.Lasso.t

type t = {
  answer : answer;
  procedure : string;  (** e.g. "rich-acyclicity", "critical-linear" *)
  evidence : string;
  witness : witness option;
}

let make answer ~procedure ~evidence =
  { answer; procedure; evidence; witness = None }

let terminates = make Terminates
let unknown = make Unknown

let diverges ?witness ~procedure ~evidence () =
  { (make Diverges ~procedure ~evidence) with witness }

let answer v = v.answer
let is_terminating v = v.answer = Terminates
let is_diverging v = v.answer = Diverges
let is_unknown v = v.answer = Unknown

let answer_to_string = function
  | Terminates -> "terminates"
  | Diverges -> "diverges"
  | Unknown -> "unknown"

let pp fm v =
  Fmt.pf fm "@[<v>%s (by %s)@ %s@]" (answer_to_string v.answer) v.procedure
    v.evidence

let to_string v = Fmt.str "%a" pp v

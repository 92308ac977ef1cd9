(** The termination front door: dispatch to the strongest applicable
    procedure.

    Given a rule set and a chase variant, [check] classifies the set and
    uses, in order of preference:

    + the exact acyclicity characterizations for simple linear sets
      (Theorem 1 — NL);
    + the exact critical-acyclicity procedure for linear sets (Theorem 2 —
      PSPACE);
    + the guarded type procedure for guarded sets (Theorem 4 — 2EXPTIME);
    + for arbitrary sets (where the problem is undecidable): the sound
      sufficient conditions — rich acyclicity for the oblivious chase, weak
      acyclicity for the semi-oblivious chase — and otherwise the
      chase-simulation semi-decision. *)

open Chase_engine
open Chase_acyclicity
open Chase_classes

let sufficient_acyclicity ~variant rules =
  match (variant : Variant.t) with
  | Oblivious ->
    if Rich.is_richly_acyclic rules then
      Some
        (Verdict.terminates ~procedure:"rich-acyclicity (sufficient)"
           ~evidence:
             "richly acyclic: the oblivious chase terminates on every \
              database (sound for arbitrary TGDs)")
    else None
  | Semi_oblivious ->
    if Weak.is_weakly_acyclic rules then
      Some
        (Verdict.terminates ~procedure:"weak-acyclicity (sufficient)"
           ~evidence:
             "weakly acyclic: the semi-oblivious chase terminates on every \
              database (sound for arbitrary TGDs)")
    else if Joint.is_jointly_acyclic rules then
      Some
        (Verdict.terminates ~procedure:"joint-acyclicity (sufficient)"
           ~evidence:
             "jointly acyclic: the existential-variable dependency relation \
              is acyclic, so the semi-oblivious chase terminates on every \
              database")
    else if Super_weak.is_super_weakly_acyclic rules then
      Some
        (Verdict.terminates ~procedure:"super-weak-acyclicity (sufficient)"
           ~evidence:
             "super-weakly acyclic: the place-unification trigger relation \
              is acyclic, so the semi-oblivious chase terminates on every \
              database")
    else if Chase_strata.Strata.is_safe rules then
      Some
        (Verdict.terminates ~procedure:"stratification (sufficient)"
           ~evidence:
             "safely stratified: every stratum of the may-trigger \
              condensation is weakly acyclic, so the semi-oblivious chase \
              terminates on every database")
    else None
  | Restricted ->
    invalid_arg "Decide: the restricted chase is decided by Restricted.check"

let check ?standard ?budget ?limits ?watchdog ?(obs = Chase_obs.Obs.disabled)
    ~variant rules =
  let module Obs = Chase_obs.Obs in
  (* Each procedure runs under a [decide:<proc>] span with its wall time
     recorded per procedure — the per-theorem-check timing surfaced by
     [--metrics]. *)
  let timed proc f =
    if Obs.enabled obs then begin
      Obs.incr obs ~label:proc "decide.dispatch";
      let t0 = Obs.now obs in
      let v = Obs.with_span obs ("decide:" ^ proc) f in
      Obs.observe obs ~label:proc "decide.check_s" (Obs.now obs -. t0);
      v
    end
    else f ()
  in
  match (variant : Variant.t) with
  | Restricted ->
    (* §4 territory: sufficient conditions, generic-instance refutation,
       and the single-head linear probe. *)
    timed "restricted" (fun () ->
        Restricted.check ?budget ?limits ?watchdog ~obs rules)
  | Oblivious | Semi_oblivious -> (
    match Classify.classify rules with
    | Classify.Simple_linear ->
      timed "simple-linear" (fun () -> Sl.check ~variant rules)
    | Classify.Linear ->
      timed "linear" (fun () ->
          Linear.check ?standard ?budget ?limits ?watchdog ~obs ~variant rules)
    | Classify.Guarded ->
      timed "guarded" (fun () ->
          Guarded.check ?standard ?budget ?limits ?watchdog ~obs ~variant rules)
    | Classify.Unguarded -> (
      match
        timed "acyclicity" (fun () -> sufficient_acyclicity ~variant rules)
      with
      | Some v -> v
      | None ->
        timed "simulation" (fun () ->
            Simulation.check ?standard ?budget ?limits ?watchdog ~obs
              ~variant rules)))

(** The restricted chase — the paper's §4 / future-work territory.

    All-instance termination of the restricted chase is not reducible to
    the critical instance (a trigger can be blocked on crit by the very
    term sharing that crit maximizes — `p(X,Y) → ∃Z p(Y,Z)` restrictedly
    terminates on `p(✶,✶)` yet diverges from `p(a,b)`), and the paper only
    announces preliminary results: a polynomial syntactic characterization
    for {e single-head linear} sets.  This module provides:

    - a sound sufficient test: weak or joint acyclicity implies restricted
      termination (the restricted chase fires a subset of the
      semi-oblivious triggers);
    - a sound divergence test for single-head linear sets, by probing the
      generic all-distinct instance: linearity makes restricted triggers
      depend only on the source fact's pattern and the presence of a
      blocking head instance, and the generic instance is the
      hardest-to-block database over the schema (no accidental term
      sharing), so divergence from it is divergence witnessed on a
      concrete database;
    - [Unknown] otherwise — honestly reflecting that a full decision
      procedure is future work in the paper too.

    Probing both crit(Σ) and the generic instance brackets the behaviour:
    crit maximizes blocking, generic minimizes it. *)

open Chase_logic
open Chase_engine
open Chase_acyclicity

let default_budget = 20_000

let probe ?(budget = default_budget) ?limits ?watchdog ?obs rules db =
  let limits =
    match limits with Some l -> l | None -> Limits.of_budget budget
  in
  let config = { Engine.variant = Variant.Restricted; limits } in
  Engine.run ~config ?obs ?watchdog rules db

let check ?(budget = default_budget) ?limits ?watchdog ?obs rules =
  if Weak.is_weakly_acyclic rules then
    Verdict.terminates ~procedure:"weak-acyclicity (sufficient)"
      ~evidence:
        "weakly acyclic: the restricted chase terminates on every database"
  else if Joint.is_jointly_acyclic rules then
    Verdict.terminates ~procedure:"joint-acyclicity (sufficient)"
      ~evidence:
        "jointly acyclic: the semi-oblivious and hence the restricted chase \
         terminate on every database"
  else if Super_weak.is_super_weakly_acyclic rules then
    Verdict.terminates ~procedure:"super-weak-acyclicity (sufficient)"
      ~evidence:
        "super-weakly acyclic: the semi-oblivious and hence the restricted \
         chase terminate on every database"
  else if Chase_strata.Strata.is_safe rules then
    Verdict.terminates ~procedure:"stratification (sufficient)"
      ~evidence:
        "safely stratified: the semi-oblivious and hence the restricted \
         chase terminate on every database"
  else begin
    let generic = Critical.generic_of_rules rules in
    let on_generic =
      probe ~budget ?limits ?watchdog ?obs rules (Instance.to_list generic)
    in
    match on_generic.Engine.status with
    | Engine.Exhausted reason ->
      (* Divergence on a concrete database refutes all-instance
         termination outright. *)
      Verdict.diverges ~procedure:"restricted-generic-probe"
        ~evidence:
          (Fmt.str
             "the restricted chase of the generic all-distinct instance did \
              not close within the %a (%d facts, depth %d — %s): divergence \
              witnessed on a concrete database"
             Limits.pp_breach reason.Limits.Exhaustion.breach
             (Instance.cardinal on_generic.Engine.instance)
             on_generic.Engine.max_depth
             (Limits.Exhaustion.diagnosis reason))
        ()
    | Engine.Terminated ->
      if Chase_classes.Classify.is_single_head rules
         && Chase_classes.Classify.is_linear rules
      then
        (* §4 case: single-head linear.  The generic instance is the
           hardest single-fact-per-predicate database to block; together
           with closure under the terminating run this is strong evidence,
           but the paper's full characterization is not reconstructible
           from the abstract, so we stop short of claiming a theorem. *)
        Verdict.terminates ~procedure:"restricted-single-head-probe"
          ~evidence:
            (Fmt.str
               "single-head linear set: restricted chase closed on the \
                generic instance after %d triggers (%d skipped as satisfied)"
               on_generic.Engine.triggers_applied
               on_generic.Engine.triggers_skipped)
      else
        Verdict.unknown ~procedure:"restricted-generic-probe"
          ~evidence:
            "restricted chase closed on the generic instance, but no \
             all-instance guarantee applies outside the single-head linear \
             fragment"
  end

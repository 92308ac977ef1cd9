(** The experiment harness: regenerates every experiment of EXPERIMENTS.md.

    The paper is a theory paper — its "evaluation" is Theorems 1–4 — so
    each experiment validates one claim empirically: agreement of the
    exact procedures with a chase-simulation oracle (E1, E2, E4),
    complexity {e shape} (E3, E4b), the variant lattice (E5), the
    critical-instance reduction (E6), the looping operator (E7) and the
    §4 restricted-chase preview (E8).  A final section runs Bechamel
    microbenchmarks of the core operations.

    Run with: dune exec bench/main.exe          (full sizes)
              dune exec bench/main.exe -- --quick *)

open Chase

let section title =
  Fmt.pr "@.%s@.%s@." title (String.make (String.length title) '=')

let hr () = Fmt.pr "%s@." (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every experiment records its headline     *)
(* numbers; the harness writes them to BENCH_results.json at the end.  *)
(* ------------------------------------------------------------------ *)

let results : (string * string) list ref = ref []

(* [v] is a ready-to-embed JSON scalar (use the j* helpers below). *)
let record experiment metric v =
  results := (Fmt.str "%s/%s" experiment metric, v) :: !results

let jint = string_of_int
let jbool = string_of_bool
let jfloat f = Fmt.str "%.6g" f

let write_results path =
  let oc = open_out path in
  let fm = Format.formatter_of_out_channel oc in
  Fmt.pf fm "{@\n";
  let entries =
    ("schema_version", "1") :: ("unit_of_time", "\"seconds\"")
    :: List.rev !results
  in
  List.iteri
    (fun i (k, v) ->
      Fmt.pf fm "  %S: %s%s@\n" k v
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Fmt.pf fm "}@.";
  close_out oc;
  Fmt.pr "@.results written to %s@." path

(* ------------------------------------------------------------------ *)
(* Small timing helpers (wall-clock scaling tables)                    *)
(* ------------------------------------------------------------------ *)

let time_avg ?(reps = 3) f =
  let total = ref 0.0 in
  for _ = 1 to reps do
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (f ()));
    total := !total +. (Sys.time () -. t0)
  done;
  !total /. float_of_int reps

let pp_time fm s =
  if s < 1e-3 then Fmt.pf fm "%8.1f µs" (s *. 1e6)
  else if s < 1.0 then Fmt.pf fm "%8.2f ms" (s *. 1e3)
  else Fmt.pf fm "%8.2f s " s

(* The chase-simulation oracle used throughout. *)
let oracle ?(budget = 20_000) variant rules =
  let crit = Critical.of_rules ~standard:false rules in
  let config =
    { Engine.variant; limits = Limits.of_budget budget }
  in
  (Engine.run ~config rules (Instance.to_list crit)).Engine.status
  = Engine.Terminated

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: acyclicity is exact on simple linear TGDs           *)
(* ------------------------------------------------------------------ *)

let e1 seeds =
  section "E1  Theorem 1: RA = CT^o and WA = CT^so on simple linear TGDs";
  let agree_o = ref 0 and agree_so = ref 0 in
  let term_o = ref 0 and term_so = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.simple_linear ~seed () in
    let ra = Rich.is_richly_acyclic rules in
    let wa = Weak.is_weakly_acyclic rules in
    let ct_o = oracle Variant.Oblivious rules in
    let ct_so = oracle Variant.Semi_oblivious rules in
    if ra = ct_o then incr agree_o;
    if wa = ct_so then incr agree_so;
    if ct_o then incr term_o;
    if ct_so then incr term_so
  done;
  Fmt.pr "random SL sets: %d  (terminating: o %d, so %d)@." seeds !term_o
    !term_so;
  Fmt.pr "RA vs o-chase oracle agreement:  %d/%d@." !agree_o seeds;
  Fmt.pr "WA vs so-chase oracle agreement: %d/%d@." !agree_so seeds;
  record "E1" "sets" (jint seeds);
  record "E1" "agreement_ra_oblivious" (jint !agree_o);
  record "E1" "agreement_wa_semi_oblivious" (jint !agree_so)

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: critical acyclicity is exact on linear TGDs         *)
(* ------------------------------------------------------------------ *)

let e2 seeds =
  section "E2  Theorem 2: critical acyclicity is exact on linear TGDs";
  let agree_o = ref 0 and agree_so = ref 0 in
  let wa_wrong = ref 0 and ra_wrong = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.linear ~seed () in
    let ct_o = oracle Variant.Oblivious rules in
    let ct_so = oracle Variant.Semi_oblivious rules in
    let crit_o =
      Verdict.is_terminating
        (Linear.check ~standard:false ~variant:Variant.Oblivious rules)
    in
    let crit_so =
      Verdict.is_terminating
        (Linear.check ~standard:false ~variant:Variant.Semi_oblivious rules)
    in
    if crit_o = ct_o then incr agree_o;
    if crit_so = ct_so then incr agree_so;
    (* plain acyclicity is sound but incomplete: count the gap *)
    if (not (Rich.is_richly_acyclic rules)) && ct_o then incr ra_wrong;
    if (not (Weak.is_weakly_acyclic rules)) && ct_so then incr wa_wrong
  done;
  Fmt.pr "random linear sets: %d@." seeds;
  Fmt.pr "critical-RA vs o-oracle agreement:  %d/%d@." !agree_o seeds;
  Fmt.pr "critical-WA vs so-oracle agreement: %d/%d@." !agree_so seeds;
  Fmt.pr
    "incompleteness of plain acyclicity (dangerous cycle yet terminating): o \
     %d, so %d@."
    !ra_wrong !wa_wrong;
  Fmt.pr "named counterexample p(X,X) -> p(X,Z): WA %b, exact answer %s@."
    (Weak.is_weakly_acyclic Families.thm2_counterexample)
    (Verdict.answer_to_string
       (Verdict.answer
          (Linear.check ~variant:Variant.Oblivious Families.thm2_counterexample)));
  record "E2" "sets" (jint seeds);
  record "E2" "agreement_critical_ra_oblivious" (jint !agree_o);
  record "E2" "agreement_critical_wa_semi_oblivious" (jint !agree_so);
  record "E2" "plain_acyclicity_gap_oblivious" (jint !ra_wrong);
  record "E2" "plain_acyclicity_gap_semi_oblivious" (jint !wa_wrong)


(* ------------------------------------------------------------------ *)
(* E2b - the sufficient-condition lattice WA <= JA on linear sets       *)
(* ------------------------------------------------------------------ *)

let e2b seeds =
  section "E2b  Sufficient conditions: WA ⊆ JA, both sound for the so-chase";
  let wa_yes = ref 0 and ja_yes = ref 0 and mfa_yes = ref 0 in
  let ja_unsound = ref 0 and mfa_unsound = ref 0 and lattice_violation = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.linear ~seed () in
    let wa = Weak.is_weakly_acyclic rules in
    let ja = Joint.is_jointly_acyclic rules in
    let mfa = Mfa.is_mfa rules in
    if wa then incr wa_yes;
    if ja then incr ja_yes;
    if mfa then incr mfa_yes;
    if (wa && not ja) || (ja && not mfa) then incr lattice_violation;
    if ja && not (oracle Variant.Semi_oblivious rules) then incr ja_unsound;
    if mfa && not (oracle Variant.Semi_oblivious rules) then incr mfa_unsound
  done;
  Fmt.pr "random linear sets: %d@." seeds;
  Fmt.pr
    "weakly acyclic: %d   jointly acyclic: %d   MFA: %d@." !wa_yes !ja_yes
    !mfa_yes;
  Fmt.pr
    "lattice (WA ⊆ JA ⊆ MFA) violations: %d   unsound cases: JA %d, MFA %d@."
    !lattice_violation !ja_unsound !mfa_unsound;
  Fmt.pr "MFA incompleteness witness (linear, so-terminating, not MFA): %b@."
    (not (Mfa.is_mfa Families.mfa_incomplete_witness));
  record "E2b" "lattice_violations" (jint !lattice_violation);
  record "E2b" "unsound_ja" (jint !ja_unsound);
  record "E2b" "unsound_mfa" (jint !mfa_unsound)

(* ------------------------------------------------------------------ *)
(* E2c - agreement under harder generator profiles                      *)
(* ------------------------------------------------------------------ *)

let e2c seeds_per_profile =
  section "E2c  Theorem 1/2 agreement under harder generator profiles";
  let profiles =
    [
      ("5 rules, arity<=4", { Random_tgds.default_profile with n_rules = 5; max_arity = 4 });
      ("high existential bias", { Random_tgds.default_profile with existential_bias = 0.7 });
      ("low existential bias", { Random_tgds.default_profile with existential_bias = 0.15 });
      ("4 preds, 3 heads", { Random_tgds.default_profile with n_preds = 4; max_head = 3 });
    ]
  in
  List.iter
    (fun (name, profile) ->
      let agree = ref 0 and diverging = ref 0 in
      for seed = 0 to seeds_per_profile - 1 do
        let rules = Random_tgds.linear ~seed ~profile () in
        let ct = oracle ~budget:30_000 Variant.Semi_oblivious rules in
        if not ct then incr diverging;
        let exact =
          Verdict.is_terminating
            (Linear.check ~standard:false ~variant:Variant.Semi_oblivious rules)
        in
        if exact = ct then incr agree
      done;
      Fmt.pr "%-24s agreement %d/%d (diverging: %d)@." name !agree
        seeds_per_profile !diverging;
      record "E2c"
        (Fmt.str "agreement[%s]" name)
        (jint !agree))
    profiles

(* ------------------------------------------------------------------ *)
(* E3 — Theorem 3: complexity shape                                    *)
(* ------------------------------------------------------------------ *)

let e3a () =
  section "E3a  Theorem 3(1): SL checking scales like graph reachability (NL)";
  Fmt.pr "%8s %11s %11s %12s@." "rules" "WA check" "RA check" "positions";
  hr ();
  List.iter
    (fun n ->
      let rules = Families.sl_chain n in
      let twa = time_avg (fun () -> Weak.is_weakly_acyclic rules) in
      let tra = time_avg (fun () -> Rich.is_richly_acyclic rules) in
      let positions = Schema.position_count (Schema.of_rules rules) in
      Fmt.pr "%8d %a %a %12d@." n pp_time twa pp_time tra positions;
      record "E3a" (Fmt.str "wa_seconds[%d]" n) (jfloat twa);
      record "E3a" (Fmt.str "ra_seconds[%d]" n) (jfloat tra))
    [ 16; 64; 256; 1024 ]

let e3b () =
  section "E3b  Theorem 3(2): the linear procedure is exponential in arity only";
  Fmt.pr "%8s %11s %11s@." "arity" "divergent family" "terminating family";
  hr ();
  List.iter
    (fun arity ->
      let div = Families.linear_rotating ~arity in
      let blk = Families.linear_blocked ~arity in
      let t1 =
        time_avg ~reps:1 (fun () ->
            Linear.check ~standard:false ~variant:Variant.Semi_oblivious div)
      in
      let t2 =
        time_avg ~reps:1 (fun () ->
            Linear.check ~standard:false ~variant:Variant.Semi_oblivious blk)
      in
      Fmt.pr "%8d %a %a@." arity pp_time t1 pp_time t2;
      record "E3b" (Fmt.str "divergent_seconds[%d]" arity) (jfloat t1);
      record "E3b" (Fmt.str "terminating_seconds[%d]" arity) (jfloat t2))
    [ 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 4: guarded TGDs                                        *)
(* ------------------------------------------------------------------ *)

let e4a seeds =
  section "E4a  Theorem 4: guarded checker vs chase oracle";
  let agree = ref 0 and unknown = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.guarded ~seed () in
    let ct = oracle ~budget:8_000 Variant.Semi_oblivious rules in
    match
      Verdict.answer
        (Guarded.check ~budget:8_000 ~variant:Variant.Semi_oblivious rules)
    with
    | Verdict.Terminates -> if ct then incr agree
    | Verdict.Diverges -> if not ct then incr agree
    | Verdict.Unknown -> incr unknown
  done;
  Fmt.pr "random guarded sets: %d@." seeds;
  Fmt.pr "definite answers agreeing with the oracle: %d/%d (unknown: %d)@."
    !agree seeds !unknown;
  record "E4a" "sets" (jint seeds);
  record "E4a" "definite_agreeing" (jint !agree);
  record "E4a" "unknown" (jint !unknown)

let e4b () =
  section "E4b  Theorem 4: guarded cost grows with arity";
  Fmt.pr "%8s %11s %11s@." "arity" "divergent family" "terminating family";
  hr ();
  List.iter
    (fun arity ->
      let t1 =
        time_avg ~reps:1 (fun () ->
            Guarded.check ~budget:3_000 ~variant:Variant.Semi_oblivious
              (Families.guarded_divergent ~arity))
      in
      let t2 =
        time_avg ~reps:1 (fun () ->
            Guarded.check ~budget:3_000 ~variant:Variant.Semi_oblivious
              (Families.guarded_terminating ~arity))
      in
      Fmt.pr "%8d %a %a@." arity pp_time t1 pp_time t2;
      record "E4b" (Fmt.str "divergent_seconds[%d]" arity) (jfloat t1);
      record "E4b" (Fmt.str "terminating_seconds[%d]" arity) (jfloat t2))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* E5 — the variant lattice: CT^o ⊆ CT^so, strictly                    *)
(* ------------------------------------------------------------------ *)

let e5 seeds =
  section "E5  Variant census: CT^o ⊆ CT^so (Grahne & Onet), strictly";
  let both = ref 0 and so_only = ref 0 and neither = ref 0 and violations = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.linear ~seed () in
    let o = oracle Variant.Oblivious rules in
    let so = oracle Variant.Semi_oblivious rules in
    if o && so then incr both
    else if (not o) && so then incr so_only
    else if (not o) && not so then incr neither
    else incr violations
  done;
  Fmt.pr "random linear sets: %d@." seeds;
  Fmt.pr
    "CT^o ∩ CT^so: %d   CT^so \\ CT^o: %d   neither: %d   violations of CT^o \
     ⊆ CT^so: %d@."
    !both !so_only !neither !violations;
  Fmt.pr "witness of strictness: p(X,Y) -> p(X,Z)  (o diverges, so terminates)@.";
  record "E5" "lattice_violations" (jint !violations);
  record "E5" "so_only" (jint !so_only)

(* ------------------------------------------------------------------ *)
(* E6 — the critical-instance theorem at work                          *)
(* ------------------------------------------------------------------ *)

let e6 seeds =
  section "E6  Critical instance: termination on crit ⇒ termination everywhere";
  let checked = ref 0 and violations = ref 0 in
  let st = Random.State.make [| 4242 |] in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.linear ~seed () in
    if oracle Variant.Semi_oblivious rules then begin
      (* try a few random databases; none may diverge *)
      for _ = 1 to 3 do
        incr checked;
        let schema = Schema.of_rules rules in
        let db =
          List.concat_map
            (fun (p, n) ->
              List.init
                (1 + Random.State.int st 3)
                (fun _ ->
                  Atom.of_list p
                    (List.init n (fun _ ->
                         Term.Const (Fmt.str "c%d" (Random.State.int st 5))))))
            (Schema.to_list schema)
        in
        let config =
          {
            Engine.variant = Variant.Semi_oblivious;
            limits = Limits.make ~max_triggers:50_000 ~max_atoms:200_000 ();
          }
        in
        let r = Engine.run ~config rules db in
        if r.Engine.status <> Engine.Terminated then incr violations
      done
    end
  done;
  Fmt.pr
    "crit-terminating linear sets probed on random databases: %d runs, %d \
     divergences@."
    !checked !violations;
  record "E6" "runs" (jint !checked);
  record "E6" "divergences" (jint !violations)

(* ------------------------------------------------------------------ *)
(* E7 — the looping operator                                           *)
(* ------------------------------------------------------------------ *)

let e7 seeds =
  section "E7  Looping operator: chase termination ⟺ non-entailment";
  let correct = ref 0 in
  let entailed_cases = ref 0 in
  let st = Random.State.make [| 77 |] in
  for seed = 0 to seeds - 1 do
    let profile =
      { Random_tgds.default_profile with existential_bias = 0.0; n_rules = 3 }
    in
    let sigma = Random_tgds.guarded ~seed ~profile () in
    let schema = Schema.of_rules sigma in
    match Schema.to_list schema with
    | [] -> incr correct
    | preds ->
      let p, n = List.nth preds (Random.State.int st (List.length preds)) in
      let target =
        Atom.of_list p (List.init n (fun i -> Term.Var (Fmt.str "T%d" i)))
      in
      let q, m = List.hd preds in
      let db =
        [ Atom.of_list q (List.init m (fun i -> Term.Const (Fmt.str "d%d" i))) ]
      in
      let entailed = Entailment.holds sigma db target in
      if entailed then incr entailed_cases;
      let looped = (Looping.apply sigma ~target).Looping.rules in
      let config =
        {
          Engine.variant = Variant.Semi_oblivious;
          limits = Limits.make ~max_triggers:20_000 ~max_atoms:80_000 ();
        }
      in
      let r = Engine.run ~config looped db in
      if (r.Engine.status = Engine.Terminated) = not entailed then incr correct
  done;
  Fmt.pr "random Datalog programs: %d (entailed targets: %d)@." seeds
    !entailed_cases;
  Fmt.pr "loop(Σ,α) termination = ¬entailment: %d/%d@." !correct seeds;
  record "E7" "sets" (jint seeds);
  record "E7" "correct" (jint !correct)

(* ------------------------------------------------------------------ *)
(* E8 — §4 preview: the restricted chase                               *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Restricted chase (§4): behaviour on the generic instance";
  Fmt.pr "%-26s %-8s %-8s %-12s@." "family" "o" "so" "restricted";
  hr ();
  let cell rules variant =
    let generic = Critical.generic_of_rules rules in
    let config =
      { Engine.variant; limits = Limits.make ~max_triggers:20_000 ~max_atoms:80_000 () }
    in
    match (Engine.run ~config rules (Instance.to_list generic)).Engine.status with
    | Engine.Terminated -> "term"
    | Engine.Exhausted _ -> "DIV"
  in
  List.iter
    (fun (name, rules) ->
      let o = cell rules Variant.Oblivious
      and so = cell rules Variant.Semi_oblivious
      and r = cell rules Variant.Restricted in
      Fmt.pr "%-26s %-8s %-8s %-12s@." name o so r;
      record "E8" (Fmt.str "verdicts[%s]" name) (Fmt.str "%S" (String.concat "/" [ o; so; r ])))
    [
      ("restricted-separator", Families.restricted_separator);
      ("example2", Families.example2);
      ("single-head-chain-4", Families.single_head_chain 4);
      ("sl-cycle-4", Families.sl_cycle 4);
      ("separator", Families.separator);
    ];
  Fmt.pr
    "@.the first row separates the restricted chase from both \
     (semi-)oblivious variants,@.as §4 of the paper anticipates.@."

(* ------------------------------------------------------------------ *)
(* E9 - beyond the paper: EGDs and cores on data-exchange workloads     *)
(* ------------------------------------------------------------------ *)

let e9 seeds =
  section "E9  Data-exchange extras: the chase with EGDs, and cores";
  let terminated = ref 0 and failed = ref 0 and budget = ref 0 in
  let merges = ref 0 in
  let shrunk = ref 0 and core_runs = ref 0 in
  for seed = 0 to seeds - 1 do
    let tgds = Random_tgds.guarded ~seed () in
    (* one key EGD on a binary-or-wider predicate when available *)
    let egds =
      match
        List.find_opt (fun (_, n) -> n >= 2) (Schema.to_list (Schema.of_rules tgds))
      with
      | None -> []
      | Some (p, n) ->
        let tail tag =
          List.init (n - 1) (fun i -> Term.Var (Fmt.str "%s%d" tag (i + 1)))
        in
        [
          Egd.make_exn
            ~body:
              [ Atom.of_list p (Term.Var "K" :: tail "A");
                Atom.of_list p (Term.Var "K" :: tail "B") ]
            ~equalities:[ ("A1", "B1") ] ();
        ]
    in
    let db = Instance.to_list (Critical.generic_of_rules tgds) in
    let config =
      { Egd_chase.default_config with
        Engine.limits = Limits.make ~max_triggers:2_000 ~max_atoms:6_000 ()
      }
    in
    let r = Egd_chase.run ~config ~tgds ~egds db in
    merges := !merges + r.Egd_chase.merges;
    (match r.Egd_chase.status with
    | Egd_chase.Terminated ->
      incr terminated;
      if
        Instance.cardinal r.Egd_chase.instance <= 12
        && Instance.null_count r.Egd_chase.instance <= 4
      then begin
        incr core_runs;
        let k = Core_model.core r.Egd_chase.instance in
        if Instance.cardinal k < Instance.cardinal r.Egd_chase.instance then
          incr shrunk
      end
    | Egd_chase.Failed _ -> incr failed
    | Egd_chase.Exhausted _ -> incr budget)
  done;
  Fmt.pr "random guarded mappings with a key EGD: %d@." seeds;
  Fmt.pr
    "terminated: %d   failed (constant conflict): %d   budget: %d   null \
     merges: %d@."
    !terminated !failed !budget !merges;
  Fmt.pr "cores computed: %d, of which strictly smaller than the chase: %d@."
    !core_runs !shrunk;
  record "E9" "terminated" (jint !terminated);
  record "E9" "failed" (jint !failed);
  record "E9" "cores_strictly_smaller" (jint !shrunk)

(* ------------------------------------------------------------------ *)
(* E11 — crash-at-every-record determinism of the journaled chase      *)
(* ------------------------------------------------------------------ *)

let e11 kills =
  section "E11  Durability: crash at record k + resume prints the uninterrupted run";
  let src =
    "tc: e(X, Y), e(Y, Z) -> e(X, Z).  mk: e(X, Y) -> r(X, W).  "
    ^ String.concat " "
        (List.init 9 (fun i -> Fmt.str "e(a%d, a%d)." i (i + 1)))
  in
  let journal =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "chase_bench_%d.jnl" (Unix.getpid ()))
  in
  (* [chase] as the CLI runs it: exit code and stdout bytes *)
  let chase ?journal ?resume () =
    let buf = Buffer.create 4096 in
    let out = Format.formatter_of_buffer buf in
    let o = Driver.chase_opts ~journal_sync:0 ?journal ?resume () in
    let code =
      Driver.chase o ~file:"tc.chase" ~src ~out
        ~err:(Format.formatter_of_buffer (Buffer.create 256))
    in
    Format.pp_print_flush out ();
    (code, Buffer.contents buf)
  in
  let baseline = chase () in
  let identical = ref 0 in
  for k = 1 to kills do
    Faults.Writes.arm journal [ Faults.Kill_after_record k ];
    (try ignore (chase ~journal ()) with Faults.Crash _ -> ());
    Faults.Writes.disarm journal;
    if chase ~resume:journal () = baseline then incr identical
  done;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ journal; Session.snapshot_path journal ];
  Fmt.pr
    "kill points: %d (records 1..%d of a 165-record run)   resumed stdout \
     byte-identical to the uninterrupted run: %d@."
    kills kills !identical;
  record "E11" "kill_points" (jint kills);
  record "E11" "identical" (jint !identical);
  record "E11" "all_identical" (jbool (!identical = kills))

(* ------------------------------------------------------------------ *)
(* E12 — join-planned vs naive trigger matching                        *)
(* ------------------------------------------------------------------ *)

let e12 quick =
  section "E12  Join planning: planned vs naive matcher (speedup + agreement)";
  let with_matcher m f =
    let saved = Hom.matcher () in
    Hom.set_matcher m;
    Fun.protect ~finally:(fun () -> Hom.set_matcher saved) f
  in
  let same_run a b =
    a.Engine.triggers_applied = b.Engine.triggers_applied
    && a.Engine.triggers_skipped = b.Engine.triggers_skipped
    && List.equal Atom.equal
         (Instance.to_sorted_list a.Engine.instance)
         (Instance.to_sorted_list b.Engine.instance)
  in
  (* The planner's target workload: star joins whose only selective atom
     is written last, so left-to-right matching enumerates the full
     cartesian fan before ever touching it. *)
  Fmt.pr "%6s %6s %11s %11s %9s %12s %12s %7s@." "width" "hubs" "naive"
    "planned" "speedup" "n-examined" "p-examined" "agree";
  hr ();
  let widths = if quick then [ 4; 6 ] else [ 4; 6; 8 ] in
  let hubs = if quick then 1_200 else 2_500 in
  let min_speedup = ref infinity in
  let wide_agree = ref true in
  List.iter
    (fun width ->
      let rules = Families.wide_body ~width in
      let db = Families.wide_body_db ~hubs ~fanout:3 in
      let config =
        {
          Engine.variant = Variant.Oblivious;
          limits = Limits.make ~max_triggers:200_000 ~max_atoms:800_000 ();
        }
      in
      let last = ref None in
      (* [time] also diffs the always-on matcher counters: candidate
         facts examined is the machine-independent cost the wall-clock
         speedup should track. *)
      let time m =
        with_matcher m (fun () ->
            let s0 = Hom.Stats.snapshot () in
            let t =
              time_avg ~reps:1 (fun () ->
                  let r = Engine.run ~config rules db in
                  last := Some r;
                  r)
            in
            (t, Hom.Stats.diff s0 (Hom.Stats.snapshot ())))
      in
      let t_naive, s_naive = time Hom.Naive in
      let r_naive = Option.get !last in
      let t_planned, s_planned = time Hom.Planned in
      let r_planned = Option.get !last in
      let agree = same_run r_naive r_planned in
      let speedup = t_naive /. t_planned in
      if speedup < !min_speedup then min_speedup := speedup;
      if not agree then wide_agree := false;
      Fmt.pr "%6d %6d %a %a %8.2fx %12d %12d %7b@." width hubs pp_time t_naive
        pp_time t_planned speedup s_naive.Hom.Stats.candidates
        s_planned.Hom.Stats.candidates agree;
      record "E12" (Fmt.str "naive_seconds[w%d]" width) (jfloat t_naive);
      record "E12" (Fmt.str "planned_seconds[w%d]" width) (jfloat t_planned);
      record "E12" (Fmt.str "speedup[w%d]" width) (jfloat speedup);
      record "E12"
        (Fmt.str "naive_candidates[w%d]" width)
        (jint s_naive.Hom.Stats.candidates);
      record "E12"
        (Fmt.str "planned_candidates[w%d]" width)
        (jint s_planned.Hom.Stats.candidates);
      record "E12"
        (Fmt.str "planned_probe_cost[w%d]" width)
        (jint s_planned.Hom.Stats.planned_probe_cost);
      record "E12"
        (Fmt.str "planned_naive_probe_estimate[w%d]" width)
        (jint s_planned.Hom.Stats.naive_probe_cost);
      record "E12" (Fmt.str "agree[w%d]" width) (jbool agree))
    widths;
  (* Differential agreement on random guarded critical-instance chases:
     runs must be step-for-step identical, not merely isomorphic, because
     the engine canonicalises trigger discovery order. *)
  let seeds = if quick then 20 else 60 in
  let agree = ref 0 in
  for seed = 0 to seeds - 1 do
    let rules = Random_tgds.guarded ~seed () in
    let db = Instance.to_list (Critical.of_rules ~standard:false rules) in
    let config =
      {
        Engine.variant = Variant.Semi_oblivious;
        limits = Limits.make ~max_triggers:4_000 ~max_atoms:16_000 ();
      }
    in
    let rn = with_matcher Hom.Naive (fun () -> Engine.run ~config rules db) in
    let rp = with_matcher Hom.Planned (fun () -> Engine.run ~config rules db) in
    if same_run rn rp then incr agree
  done;
  Fmt.pr "@.wide-body minimum speedup: %.2fx (agreement on all widths: %b)@."
    !min_speedup !wide_agree;
  Fmt.pr "random guarded sets, planned ≡ naive run-for-run: %d/%d@." !agree
    seeds;
  record "E12" "min_speedup_wide_body" (jfloat !min_speedup);
  record "E12" "wide_body_agreement" (jbool !wide_agree);
  record "E12" "random_sets" (jint seeds);
  record "E12" "random_agreement" (jint !agree)

(* ------------------------------------------------------------------ *)
(* E13 — observability: hot spots, self-consistency, overhead          *)
(* ------------------------------------------------------------------ *)

let e13 quick =
  section "E13  Observability: per-rule hot spots, self-consistency, overhead";
  let tower = Families.guarded_tower ~levels:6 in
  let db = Instance.to_list (Critical.of_rules tower) in
  let config =
    {
      Engine.variant = Variant.Semi_oblivious;
      limits = Limits.make ~max_triggers:10_000 ~max_atoms:40_000 ();
    }
  in
  (* One fully observed run: spans paired into records and counted,
     metrics into a fresh registry.  The profile columns must re-sum to
     the run totals the engine reports — the table is self-checking. *)
  let records = ref 0 in
  let metrics = Metrics.create () in
  let obs = Obs.create ~metrics [ Tracectx.records (fun _ -> incr records) ] in
  let r = Engine.run ~config ~obs tower db in
  Obs.finish obs;
  Fmt.pr "%a" Profile.pp metrics;
  let rows = Profile.rows metrics in
  let sum f = List.fold_left (fun a row -> a + f row) 0 rows in
  let firings_sum = sum (fun (row : Profile.row) -> row.firings) in
  let nulls_sum = sum (fun (row : Profile.row) -> row.nulls) in
  let nulls_run = Instance.null_count r.Engine.instance in
  let firings_ok = firings_sum = r.Engine.triggers_applied in
  let nulls_ok = nulls_sum = nulls_run in
  let events = !records in
  let hottest, hottest_share =
    match rows with
    | [] -> ("-", 0.)
    | first :: _ ->
      let total =
        List.fold_left (fun a (row : Profile.row) -> a +. row.time_s) 0. rows
      in
      let top =
        List.fold_left
          (fun best (row : Profile.row) ->
            if row.time_s > best.Profile.time_s then row else best)
          first rows
      in
      (top.label, if total > 0. then 100. *. top.time_s /. total else 0.)
  in
  Fmt.pr
    "@.self-check: profile firings %d vs run %d (%b)   nulls %d vs run %d \
     (%b)@."
    firings_sum r.Engine.triggers_applied firings_ok nulls_sum nulls_run
    nulls_ok;
  Fmt.pr "hottest rule: %s (%.1f%% of rule time)   span records: %d@."
    hottest hottest_share events;
  (* The same run with no observer vs a live observer draining into the
     null sink: a few shots with no spread, recorded but no overhead
     measurement (perfbench's trace.overhead_ratio is). *)
  let reps = if quick then 3 else 5 in
  let t_off = time_avg ~reps (fun () -> Engine.run ~config tower db) in
  let t_on =
    time_avg ~reps (fun () ->
        let obs = Obs.create ~metrics:(Metrics.create ()) [ Sink.null ] in
        let r = Engine.run ~config ~obs tower db in
        Obs.finish obs;
        r)
  in
  Fmt.pr "wall time: obs off %a   obs on (null sink) %a   ratio %.2fx@."
    pp_time t_off pp_time t_on (t_on /. t_off);
  (* Journal latency percentiles from an observed durable run. *)
  let journal =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "chase_obs_%d.jnl" (Unix.getpid ()))
  in
  let jm = Metrics.create () in
  let jobs = Obs.create ~metrics:jm [] in
  let s =
    Session.start ~obs:jobs ~journal ~fsync_every:8
      ~variant:config.Engine.variant ~rules:tower ~db ()
  in
  ignore
    (Engine.run ~config ~obs:jobs ~on_trigger:(Session.on_trigger s) tower db);
  Session.finish s;
  Obs.finish jobs;
  (match Metrics.hist_stats jm "journal.append_s" with
  | Some (n, _, _, _, p50, _, p99) ->
    Fmt.pr "journal appends: %d   p50 %.1f µs   p99 %.1f µs@." n (1e6 *. p50)
      (1e6 *. p99);
    record "E13" "journal_appends" (jint n);
    record "E13" "journal_append_p50_seconds" (jfloat p50);
    record "E13" "journal_append_p99_seconds" (jfloat p99)
  | None -> ());
  (match Metrics.hist_stats jm "journal.fsync_s" with
  | Some (n, _, _, _, p50, _, p99) ->
    Fmt.pr "journal fsyncs:  %d   p50 %.1f µs   p99 %.1f µs@." n (1e6 *. p50)
      (1e6 *. p99);
    record "E13" "journal_fsyncs" (jint n);
    record "E13" "journal_fsync_p50_seconds" (jfloat p50);
    record "E13" "journal_fsync_p99_seconds" (jfloat p99)
  | None -> ());
  if Sys.file_exists journal then Sys.remove journal;
  record "E13" "profile_firings_consistent" (jbool firings_ok);
  record "E13" "profile_nulls_consistent" (jbool nulls_ok);
  record "E13" "hottest_rule" (Fmt.str "%S" hottest);
  record "E13" "hottest_share_percent" (jfloat hottest_share);
  record "E13" "span_records" (jint events);
  record "E13" "obs_off_seconds" (jfloat t_off);
  record "E13" "obs_on_seconds" (jfloat t_on);
  record "E13" "enabled_overhead_ratio" (jfloat (t_on /. t_off))

(* ------------------------------------------------------------------ *)
(* E14 — replication: takeover latency and lag under wide-body load    *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let has_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

(* Pull ["key":<number>] out of a one-line JSON metrics summary; the
   emitter's formatting is fixed, so no JSON dependency is needed. *)
let scan_num line key =
  let marker = Fmt.str "%S:" key in
  let n = String.length line and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = marker then begin
      let j = ref (i + m) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      float_of_string_opt (String.sub line (i + m) (!j - i - m))
    end
    else find (i + 1)
  in
  find 0

let e14 quick =
  section
    "E14  Replication: takeover latency + ship lag (wide-body workload)";
  (* The E12 star-join workload, printed back to program text and run as
     a durable request through a live primary/standby pair. *)
  let width = 4 in
  let hubs = if quick then 300 else 800 in
  let program =
    let rules = Families.wide_body ~width in
    let db = Families.wide_body_db ~hubs ~fanout:3 in
    String.concat "\n"
      (List.map (fun r -> Tgd.to_string r ^ ".") rules
      @ List.map (fun a -> Atom.to_string a ^ ".") db)
  in
  let req =
    Proto.request ~file:"e14.chase" ~program ~budget:200_000 ~quiet:true
      ~durable:true Proto.Chase
  in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "chase_e14_%d%s" (Unix.getpid ()) suffix)
  in
  let a = tmp ".a.sock" and b = tmp ".b.sock" and ship = tmp ".ship.sock" in
  let spool_p = tmp ".p.spool" and spool_s = tmp ".s.spool" in
  let metrics = tmp ".metrics.jsonl" in
  List.iter rm_rf [ a; b; ship; spool_p; spool_s; metrics ];
  let standby =
    Standby.start
      (Standby.config ~cert_interval:0.2 ~metrics
         ~server:(Server.config ~workers:2 ~spool_dir:spool_s b)
         ~ship_socket:ship ())
  in
  let shipper =
    Shipper.start
      (Shipper.config ~sync_timeout:2.0 ~poll_interval:0.02
         ~connect_retry:0.02 ~spool_dir:spool_p ~ship_socket:ship ())
  in
  let server =
    Server.start
      (Server.config ~workers:2 ~spool_dir:spool_p
         ~on_durable:(Shipper.on_durable shipper) a)
  in
  (* the acknowledged durable request the promoted standby must honour *)
  let t0 = Unix.gettimeofday () in
  let primary =
    match Client.call_retry ~attempts:5 ~base_delay:0.05 ~socket:a req with
    | Ok (Proto.Ok_response r) -> r
    | Ok resp -> Fmt.failwith "E14 primary rejected: %a" Proto.pp_response resp
    | Error f -> Fmt.failwith "E14 primary: %a" Client.pp_failure f
  in
  let primary_seconds = Unix.gettimeofday () -. t0 in
  let shipped = Shipper.quiesce shipper ~timeout:30.0 in
  (* kill the primary mid-fleet; the failover client walks the server
     list, discovers the standby, promotes it over the wire and
     re-sends.  Takeover = kill to first standby-served response. *)
  let t_kill = Unix.gettimeofday () in
  Server.kill server;
  Shipper.stop shipper;
  let outcome =
    match
      Failover.call ~attempts_per_server:2 ~base_delay:0.05 ~servers:[ a; b ]
        req
    with
    | Ok o -> o
    | Error f -> Fmt.failwith "E14 failover: %a" Failover.pp_failure f
  in
  let takeover = Unix.gettimeofday () -. t_kill in
  let standby_r =
    match outcome.Failover.response with
    | Proto.Ok_response r -> r
    | resp -> Fmt.failwith "E14 standby: %a" Proto.pp_response resp
  in
  let parity =
    standby_r.Proto.exit_code = primary.Proto.exit_code
    && String.equal standby_r.Proto.stdout primary.Proto.stdout
    && String.equal standby_r.Proto.stderr primary.Proto.stderr
  in
  (* steady state: the promoted standby serves without another vote *)
  let t2 = Unix.gettimeofday () in
  let warm_ok =
    match Failover.call ~servers:[ a; b ] req with
    | Ok o -> String.equal o.Failover.server b && not o.Failover.promoted
    | Error _ -> false
  in
  let warm_seconds = Unix.gettimeofday () -. t2 in
  Standby.stop standby;
  (* promotion closed the receiver's observer, flushing its metrics
     file; the repl.lag histogram there is frames-behind-head at apply
     time — the replication lag of the drill. *)
  let lag_line =
    if not (Sys.file_exists metrics) then None
    else begin
      let ic = open_in metrics in
      let rec find acc =
        match input_line ic with
        | line ->
          find (if has_sub line "\"repl.lag\"" then Some line else acc)
        | exception End_of_file -> acc
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> find None)
    end
  in
  Fmt.pr
    "primary chase (width %d, %d hubs): %a   shipped before kill: %b@." width
    hubs pp_time primary_seconds shipped;
  Fmt.pr
    "takeover (kill -> standby response): %a   promoted by client: %b   \
     byte parity: %b@."
    pp_time takeover outcome.Failover.promoted parity;
  Fmt.pr "warm standby re-serve: %a (no re-promotion: %b)@." pp_time
    warm_seconds warm_ok;
  record "E14" "width" (jint width);
  record "E14" "hubs" (jint hubs);
  record "E14" "primary_seconds" (jfloat primary_seconds);
  record "E14" "shipped_before_kill" (jbool shipped);
  record "E14" "takeover_seconds" (jfloat takeover);
  record "E14" "promoted_by_client" (jbool outcome.Failover.promoted);
  record "E14" "failovers" (jint outcome.Failover.failovers);
  record "E14" "standby_parity" (jbool parity);
  record "E14" "warm_standby_ok" (jbool warm_ok);
  record "E14" "warm_seconds" (jfloat warm_seconds);
  (match lag_line with
  | None -> Fmt.pr "no repl.lag histogram found in %s@." metrics
  | Some line ->
    let get k = Option.value ~default:(-1.) (scan_num line k) in
    Fmt.pr
      "replication lag (frames behind head): applied %.0f   p50 %.1f   p99 \
       %.1f   max %.0f@."
      (get "count") (get "p50") (get "p99") (get "max");
    record "E14" "lag_frames_applied" (jint (int_of_float (get "count")));
    record "E14" "lag_frames_p50" (jfloat (get "p50"));
    record "E14" "lag_frames_p99" (jfloat (get "p99"));
    record "E14" "lag_frames_max" (jint (int_of_float (get "max"))));
  List.iter rm_rf [ a; b; ship; spool_p; spool_s; metrics ]

(* ------------------------------------------------------------------ *)
(* E17 — request tracing: traced vs untraced time, spans complete     *)
(* ------------------------------------------------------------------ *)

let e17 quick =
  section "E17  Request tracing: overhead vs untraced, span completeness";
  (* The same request fleet twice against a live server: untraced with
     tracing off, then traced end to end (client-minted roots, a server
     shard).  One short fleet per side: the time ratio is recorded, not
     a measured overhead.  Every request gets a distinct marker
     fact so none is a cache hit — this times the full compute path. *)
  let width = 4 in
  let hubs = if quick then 200 else 500 in
  let reqs = if quick then 12 else 30 in
  let base_program =
    let rules = Families.wide_body ~width in
    let db = Families.wide_body_db ~hubs ~fanout:3 in
    String.concat "\n"
      (List.map (fun r -> Tgd.to_string r ^ ".") rules
      @ List.map (fun a -> Atom.to_string a ^ ".") db)
  in
  let req ?trace i =
    Proto.request ?trace ~file:"e17.chase"
      ~program:(Fmt.str "%s\nmarker%d(m)." base_program i)
      ~budget:200_000 ~quiet:true Proto.Chase
  in
  let tmp suffix =
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "chase_e17_%d%s" (Unix.getpid ()) suffix)
  in
  let sock_off = tmp ".off.sock" and sock_on = tmp ".on.sock" in
  let spool_off = tmp ".off.spool" and spool_on = tmp ".on.spool" in
  let shard_srv = tmp ".server.trace" and shard_cli = tmp ".client.trace" in
  let scratch =
    [ sock_off; sock_on; spool_off; spool_on; shard_srv; shard_cli ]
  in
  List.iter rm_rf scratch;
  let run_fleet ~socket ~traced =
    let shard =
      if traced then Some (Tracectx.Shard.open_ ~proc:"bench" shard_cli)
      else None
    in
    let t0 = Unix.gettimeofday () in
    for i = 0 to reqs - 1 do
      let root = if traced then Some (Tracectx.genesis ()) else None in
      let r = req ?trace:(Option.map Tracectx.to_string root) i in
      match
        Tracectx.span shard ?ctx:root "client.request" (fun () ->
            Client.call_retry ~attempts:4 ~base_delay:0.05 ~socket r)
      with
      | Ok (Proto.Ok_response _) -> ()
      | Ok resp -> Fmt.failwith "E17 rejected: %a" Proto.pp_response resp
      | Error f -> Fmt.failwith "E17: %a" Client.pp_failure f
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Option.iter Tracectx.Shard.close shard;
    dt
  in
  let srv_off =
    Server.start (Server.config ~workers:2 ~spool_dir:spool_off sock_off)
  in
  let t_off = run_fleet ~socket:sock_off ~traced:false in
  Server.stop srv_off;
  let srv_on =
    Server.start
      (Server.config ~workers:2 ~spool_dir:spool_on ~trace_shard:shard_srv
         sock_on)
  in
  let t_on = run_fleet ~socket:sock_on ~traced:true in
  Server.stop srv_on;
  (* completeness: join both shards by trace id; every traced request
     must show the whole in-process pipeline *)
  let records path =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line ->
        go
          (match Tracectx.parse_shard_line line with
          | Some r -> r :: acc
          | None -> acc)
      | exception End_of_file -> acc
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go [])
  in
  let recs = records shard_cli @ records shard_srv in
  let by_trace : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_trace r.Tracectx.r_trace)
      in
      Hashtbl.replace by_trace r.Tracectx.r_trace (r.Tracectx.r_name :: prev))
    recs;
  let need = [ "client.request"; "server.chase"; "admission.queue"; "engine.run" ] in
  let traces = Hashtbl.length by_trace in
  let complete = ref 0 in
  Hashtbl.iter
    (fun _ names ->
      if List.for_all (fun n -> List.mem n names) need then incr complete)
    by_trace;
  let ratio = t_on /. t_off in
  Fmt.pr
    "fleet of %d chases (width %d, %d hubs): untraced %a   traced %a   \
     ratio %.2f@."
    reqs width hubs pp_time t_off pp_time t_on ratio;
  Fmt.pr
    "spans: %d across %d traces   complete pipelines \
     (client+server+admission+engine): %d/%d@."
    (List.length recs) traces !complete traces;
  record "E17" "requests" (jint reqs);
  record "E17" "untraced_seconds" (jfloat t_off);
  record "E17" "traced_seconds" (jfloat t_on);
  record "E17" "overhead_ratio" (jfloat ratio);
  record "E17" "spans" (jint (List.length recs));
  record "E17" "traces" (jint traces);
  record "E17" "complete_traces" (jint !complete);
  record "E17" "all_traces_complete"
    (jbool (traces = reqs && !complete = traces));
  List.iter rm_rf scratch

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  section "Microbenchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let stage f = Staged.stage f in
  let triangle =
    Chase.Instance.of_list
      (Parser.parse_database_exn
         "e(a, b). e(b, c). e(c, a). e(a, d). e(d, c). e(b, e). e(e, a).")
  in
  let join_rule = Parser.parse_rule_exn "e(X, Y), e(Y, Z) -> e(X, Z)" in
  let tower = Families.guarded_tower ~levels:6 in
  let tower_db = Chase.Instance.to_list (Critical.of_rules tower) in
  let chain = Families.sl_chain 256 in
  let tests =
    [
      Test.make ~name:"hom/2-path-join"
        (stage (fun () -> Hom.all triangle (Tgd.body join_rule)));
      Test.make ~name:"engine/guarded-tower-6"
        (stage (fun () ->
             Engine.run
               ~config:
                 {
                   Engine.variant = Variant.Semi_oblivious;
                   limits = Limits.make ~max_triggers:10_000 ~max_atoms:40_000 ();
                 }
               tower tower_db));
      Test.make ~name:"acyclicity/wa-chain-256"
        (stage (fun () -> Weak.is_weakly_acyclic chain));
      Test.make ~name:"acyclicity/ra-chain-256"
        (stage (fun () -> Rich.is_richly_acyclic chain));
      Test.make ~name:"critical-linear/rotating-4"
        (stage (fun () ->
             Linear.check ~standard:false ~variant:Variant.Semi_oblivious
               (Families.linear_rotating ~arity:4)));
      Test.make ~name:"guarded-check/divergent-3"
        (stage (fun () ->
             Guarded.check ~budget:3_000 ~variant:Variant.Semi_oblivious
               (Families.guarded_divergent ~arity:3)));
      Test.make ~name:"acyclicity/ja-chain-256"
        (stage (fun () -> Joint.is_jointly_acyclic chain));
      Test.make ~name:"critical-instance/standard-arity-3"
        (stage (fun () ->
             Critical.of_rules ~standard:true (Families.linear_rotating ~arity:3)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Fmt.pr "%-38s %14s@." "benchmark" "time/run";
  hr ();
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let res = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            Fmt.pr "%-38s %a@." name pp_time (ns /. 1e9);
            record "micro" (Fmt.str "seconds[%s]" name) (jfloat (ns /. 1e9))
          | Some _ | None -> Fmt.pr "%-38s %14s@." name "n/a")
        res)
    tests

(* ------------------------------------------------------------------ *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let n_small = if quick then 60 else 300 in
  let n_tiny = if quick then 30 else 120 in
  Fmt.pr
    "Chase termination for guarded existential rules — experiment harness@.";
  e1 n_small;
  e2 n_small;
  e2b n_small;
  e2c n_tiny;
  e3a ();
  e3b ();
  e4a n_tiny;
  e4b ();
  e5 n_small;
  e6 n_tiny;
  e7 n_tiny;
  e8 ();
  e9 (min n_tiny 40);
  e11 (if quick then 10 else 50);
  e12 quick;
  e13 quick;
  e14 quick;
  e17 quick;
  microbenches ();
  record "harness" "quick" (jbool quick);
  write_results "BENCH_results.json";
  Fmt.pr "@.done.@."

(** The chase engine.

    One fair (FIFO) worklist core drives all three variants; they differ
    only in the trigger-deduplication key ([Variant]) and, for the
    restricted chase, in an applicability test at fire time.

    A {e trigger} is a pair (rule, homomorphism from the rule body into the
    current instance).  The engine seeds the worklist with every trigger on
    the input database, then, semi-naively, whenever a fact is added it
    enqueues only the triggers whose body image uses that fact.  FIFO order
    makes every run a fair chase sequence: a trigger enqueued at step [n]
    is applied (or, for the restricted chase, found satisfied) after
    finitely many steps.

    Every run is governed by a {!Limits.t}: counter budgets, a wall-clock
    deadline and a cooperative cancellation token.  A breached limit never
    loses work — the run degrades gracefully to the partial instance (a
    sound prefix of the chase, every fact provenance-backed) plus a
    structured {!Limits.Exhaustion.reason}. *)

open Chase_logic
module Obs = Chase_obs.Obs

type config = {
  variant : Variant.t;
  limits : Limits.t;  (** resource governance for the run *)
}

let default_config = { variant = Variant.Oblivious; limits = Limits.default }

type status =
  | Terminated  (** no unapplied trigger remains: the chase result is final *)
  | Exhausted of Limits.Exhaustion.reason
      (** a limit was breached; the run is a sound prefix *)

type result = {
  instance : Instance.t;
  status : status;
  variant : Variant.t;
  triggers_applied : int;
  triggers_skipped : int;  (** restricted chase: triggers found satisfied *)
  atoms_created : int;
  nulls_created : int;
  max_depth : int;
  elapsed : float;  (** wall-clock seconds, per the limits' clock *)
  rule_firings : (string * int) list;
      (** per-rule trigger applications, descending *)
  queue_residual : int;  (** triggers left unprocessed at stop *)
  derivations : Derivation.t option array;
      (** the derivation record of each fact, by fact id ([None] for a
          database fact); read through {!derivation} *)
}

let exhausted r = match r.status with Exhausted _ -> true | Terminated -> false

let exhaustion r =
  match r.status with Exhausted e -> Some e | Terminated -> None

let derivation result a =
  match Instance.id_of result.instance a with -1 -> None | id -> result.derivations.(id)

let depth_of result a =
  match derivation result a with Some d -> Derivation.depth d | None -> 0

(** [run ?config ?on_trigger ?watchdog rules db] chases the facts
    [db] with [rules].

    The input list [db] is not mutated; the result instance is fresh.
    Termination of the run is reported in [status]; when the configured
    limits are generous enough and the chase of the input terminates, the
    result instance is the (finite) chase result, a universal model of the
    database and the rules.

    [on_trigger] is invoked after every trigger application with the step
    number, the rule (and its index), the full body homomorphism, the
    derivation depth, the stamps of the nulls invented by the application
    and the facts it actually added (possibly none, under set semantics) —
    the hook behind {!Sequence} and the write-ahead journal; an exception
    it raises ends the run and propagates.  [watchdog] receives periodic
    progress snapshots (see {!Watchdog}).

    The run is deterministic, so a resume re-runs it from step zero and
    checks each step against the journal ([Chase_persist.Recovery]).

    [obs] streams structured telemetry (see {!Chase_obs.Obs}): a [chase]
    span over the whole run with per-trigger child spans, periodic
    counter-track samples, and — into the metric registry — run totals
    plus per-rule firings/nulls/probes/time breakdowns.  The default
    {!Obs.disabled} reduces every instrumentation point to one flag
    test. *)
let run ?(config = default_config) ?(obs = Obs.disabled) ?on_trigger ?watchdog
    rules db =
  let rules = Array.of_list rules in
  (* Triggers are slot arrays over rules compiled once per run (DESIGN.md
     §3.1); a substitution is built only where one is consumed. *)
  let compiled = Array.mapi Trigger.compile rules in
  (* The delta sweep visits only the rules whose bodies mention the added
     fact's predicate, in ascending index order.  Any other rule has no
     body atom the fact could be pinned to, so a seeded search would
     yield nothing for it. *)
  let rules_by_pred = Hashtbl.create 64 in
  for i = Array.length rules - 1 downto 0 do
    List.iter
      (fun p ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt rules_by_pred p) in
        Hashtbl.replace rules_by_pred p (i :: prev))
      (List.sort_uniq String.compare (List.map Atom.pred (Tgd.body rules.(i))))
  done;
  let sweep fact =
    Option.value ~default:[] (Hashtbl.find_opt rules_by_pred (Atom.pred fact))
  in
  let tracked = Obs.enabled obs in
  let instance = Instance.create () in
  List.iter (fun a -> ignore (Instance.add instance a)) db;
  (* The dedup keys.  A seeded search finds each homomorphism that uses
     its seed once, and only once every fact of its image is present, so
     under o and r a homomorphism can be found again only through another
     fact added by the same application: [seen] then holds one
     application's triggers and is reset after it.  The semi-oblivious
     key forgets the non-frontier slots, so there [seen] spans the run. *)
  let run_wide = config.variant = Variant.Semi_oblivious in
  let seen = Trigger.Tbl.create (if run_wide then 1024 else 16) in
  let queue = Queue.create () in
  let monitor = Limits.Monitor.start config.limits in
  let firings = Array.make (Array.length rules) 0 in
  let null_window = Watchdog.Window.create () in
  let null_counter = ref 0 in
  let fresh_null () =
    incr null_counter;
    !null_counter
  in
  let triggers_applied = ref 0 in
  let triggers_skipped = ref 0 in
  let atoms_created = ref 0 in
  let max_depth = ref 0 in
  let rule_display i =
    let n = Tgd.name rules.(i) in
    if n = "" then Fmt.str "rule#%d" (i + 1) else n
  in
  (* Baselines for the run-total metrics reported at the end: the
     matcher counters are process-wide. *)
  let hom0 = Hom.Stats.snapshot () in
  let plan0 = Plan.Stats.snapshot () in
  (* Per-rule profile accumulators, only paid for when observed. *)
  let prof_n = if tracked then Array.length rules else 0 in
  let prof_time = Array.make prof_n 0. in
  let prof_match = Array.make prof_n 0. in
  let prof_probes = Array.make prof_n 0 in
  let prof_nulls = Array.make prof_n 0 in
  (* Derivation records by fact id, written when a fact is added; a
     trigger reads its parents' depths from them when it is found. *)
  let derivations = ref (Array.make (max 1024 (Instance.cardinal instance)) None) in
  let set_derivation id d =
    if id >= Array.length !derivations then begin
      let a = Array.make (2 * id) None in
      Array.blit !derivations 0 a 0 (Array.length !derivations);
      derivations := a
    end;
    !derivations.(id) <- Some d
  in
  let depth id = match !derivations.(id) with Some d -> d.Derivation.depth | None -> 0 in
  (* One probe: [replace] adds the key or rewrites an equal one, and only
     an addition grows the table. *)
  let enqueue_new tr =
    let key = Trigger.key config.variant compiled.(tr.Trigger.rule) tr in
    let n = Trigger.Tbl.length seen in
    Trigger.Tbl.replace seen key ();
    if Trigger.Tbl.length seen > n then Queue.add tr queue
  in
  let enqueue tr = if run_wide then enqueue_new tr else Queue.add tr queue in
  (* Trigger discovery is canonicalised: the triggers found for one
     (rule, discovery event) are sorted before entering the FIFO, so the
     worklist order — and with it the whole chase sequence, null stamps
     included — depends only on the binding *set* the matcher produces,
     never on its enumeration order.  Planned and naive runs are
     therefore step-for-step identical, which the differential test
     suite asserts.  Slot-array order is [Subst.compare] order. *)
  let discover ?seed i =
    let c = compiled.(i) in
    let slots = Array.make c.n_body Hom.unbound in
    let acc = ref [] in
    Hom.iter_slots ?seed instance c.body ~slots (fun ids ->
        let d = ref 0 in
        for k = 0 to Array.length ids - 1 do
          d := max !d (depth ids.(k))
        done;
        acc := Trigger.make c (Array.copy slots) ~depth:(1 + !d) :: !acc);
    let found = Array.of_list !acc in
    Array.sort Trigger.compare found;
    found
  in
  let discover_all_for_rule i =
    let t0 = if tracked then Obs.now obs else 0. in
    let c0 = if tracked then Hom.Stats.candidates_now () else 0 in
    let found = discover i in
    if tracked then begin
      let dt = Obs.now obs -. t0 in
      prof_match.(i) <- prof_match.(i) +. dt;
      prof_time.(i) <- prof_time.(i) +. dt;
      prof_probes.(i) <- prof_probes.(i) + (Hom.Stats.candidates_now () - c0)
    end;
    found
  in
  if tracked then
    Obs.span_begin obs "chase"
      ~args:
        [
          ("variant", Chase_obs.Jsonv.String (Fmt.str "%a" Variant.pp config.variant));
          ("rules", Chase_obs.Jsonv.Int (Array.length rules));
          ("db", Chase_obs.Jsonv.Int (List.length db));
        ];
  Obs.span_begin obs "seed";
  let found = Array.init (Array.length rules) discover_all_for_rule in
  Array.iter (Array.iter enqueue) found;
  Obs.span_end obs "seed";
  (* The facts an application adds get the ids [first .. last - 1] and
     share one derivation record; a substitution is built only for
     [on_trigger].  Most triggers of a closure re-derive a known fact and
     allocate no more than the head atom they look up. *)
  let apply tr =
    let t_start = if tracked then Obs.now obs else 0. in
    let c_start = if tracked then Hom.Stats.candidates_now () else 0 in
    let i = tr.Trigger.rule in
    let c = compiled.(i) in
    incr triggers_applied;
    firings.(i) <- firings.(i) + 1;
    if tracked then
      Obs.span_begin obs
        ~args:[ ("step", Chase_obs.Jsonv.Int !triggers_applied) ]
        (rule_display i);
    let vals = Trigger.extend c tr ~fresh:fresh_null in
    let depth = tr.Trigger.depth in
    if depth > !max_depth then max_depth := depth;
    let first = Instance.cardinal instance in
    for k = 0 to Array.length c.head - 1 do
      ignore (Instance.add instance (Template.instantiate vals c.head.(k)))
    done;
    let last = Instance.cardinal instance in
    if last > first then begin
      atoms_created := !atoms_created + (last - first);
      let d = { Derivation.rule = c; vals; depth; step = !triggers_applied } in
      for id = first to last - 1 do
        set_derivation id d
      done
    end;
    (* Semi-naive trigger discovery: only homomorphisms using a new fact
       can be new.  Its cost is attributed to the rule whose output
       seeded it. *)
    let m0 = if tracked then Obs.now obs else 0. in
    Obs.span_begin obs "match";
    let enq = if last - first > 1 then enqueue_new else enqueue in
    for id = first to last - 1 do
      List.iter
        (fun i -> Array.iter enq (discover ~seed:id i))
        (sweep (Instance.fact instance id))
    done;
    if (not run_wide) && last > first then Trigger.Tbl.reset seen;
    Obs.span_end obs "match";
    if tracked then
      prof_match.(i) <- prof_match.(i) +. (Obs.now obs -. m0);
    Watchdog.Window.observe null_window ~step:!triggers_applied !null_counter;
    (match watchdog with
    | Some w ->
      Watchdog.observe w ~step:!triggers_applied
        ~elapsed:(fun () -> Limits.Monitor.elapsed monitor)
        ~facts:(Instance.cardinal instance)
        ~queue:(Queue.length queue) ~nulls:!null_counter ~depth:!max_depth
        ~null_rate:(fun () -> Watchdog.Window.rate null_window)
    | None -> ());
    if tracked then begin
      prof_nulls.(i) <- prof_nulls.(i) + Array.length vals - c.n_body;
      prof_probes.(i) <-
        prof_probes.(i) + (Hom.Stats.candidates_now () - c_start);
      prof_time.(i) <-
        prof_time.(i) +. (Obs.now obs -. t_start);
      (* the trigger span closes before the persistence hook runs, so
         journal latency shows up in its own metrics, not under the
         rule *)
      Obs.span_end obs (rule_display i);
      if !triggers_applied land 511 = 0 then
        Obs.series obs "chase"
          [
            ("facts", float_of_int (Instance.cardinal instance));
            ("queue", float_of_int (Queue.length queue));
            ("nulls", float_of_int !null_counter);
            ("depth", float_of_int !max_depth);
          ]
    end;
    match on_trigger with
    | Some f ->
      f ~step:!triggers_applied ~rule_index:i ~depth
        ~created_nulls:(Trigger.nulls c vals) c.tgd (Trigger.to_subst c vals)
        (List.init (last - first) (fun k -> Instance.fact instance (first + k)))
    | None -> ()
  in
  let firing_table () =
    Array.to_list (Array.mapi (fun i c -> (rule_display i, c)) firings)
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let exhaust breach =
    Limits.Exhaustion.make ~breach ~steps:!triggers_applied
      ~elapsed:(Limits.Monitor.elapsed monitor)
      ~rule_firings:(firing_table ())
      ~null_rate:(Watchdog.Window.rate null_window)
      ~window:(Watchdog.Window.span null_window)
      ~deepest_chain:!max_depth ()
  in
  let rec loop () =
    if Queue.is_empty queue then Terminated
    else
      match
        Limits.Monitor.check monitor ~steps:!triggers_applied
          ~facts:(Instance.cardinal instance)
          ~nulls:!null_counter ~depth:!max_depth
      with
      | Some breach -> Exhausted (exhaust breach)
      | None ->
        let tr = Queue.pop queue in
        (match config.variant with
        | Variant.Restricted
          when let c = compiled.(tr.Trigger.rule) in
               Hom.exists_slots instance c.head ~slots:(Trigger.frontier_slots c tr) ->
          incr triggers_skipped
        | Variant.Restricted | Variant.Oblivious | Variant.Semi_oblivious ->
          apply tr);
        loop ()
  in
  (* The run totals and the closing of the [chase] span, also when an
     [on_trigger] hook stops the run by raising. *)
  let finish outcome =
    if tracked then begin
      (* Run totals into the metric registry; the matcher's as deltas
         against its process-wide counters. *)
      let dh = Hom.Stats.diff hom0 (Hom.Stats.snapshot ()) in
      let dp = Plan.Stats.diff plan0 (Plan.Stats.snapshot ()) in
      Obs.incr obs ~by:!triggers_applied "chase.triggers_applied";
      Obs.incr obs ~by:!triggers_skipped "chase.triggers_skipped";
      Obs.incr obs ~by:!atoms_created "chase.atoms_created";
      Obs.incr obs ~by:!null_counter "chase.nulls_created";
      Obs.incr obs ~by:dh.Hom.Stats.probes "chase.hom.probes";
      Obs.incr obs ~by:dh.Hom.Stats.full_scans "chase.hom.full_scans";
      Obs.incr obs ~by:dh.Hom.Stats.candidates "chase.hom.candidates";
      Obs.incr obs ~by:dh.Hom.Stats.matches "chase.hom.matches";
      Obs.incr obs ~by:dh.Hom.Stats.planned_probe_cost
        "chase.hom.planned_probe_cost";
      Obs.incr obs ~by:dh.Hom.Stats.naive_probe_cost "chase.hom.naive_probe_cost";
      Obs.incr obs ~by:dp.Plan.Stats.plans "chase.plan.plans";
      Obs.incr obs ~by:dp.Plan.Stats.estimates "chase.plan.estimates";
      Obs.set_gauge obs "chase.instance.facts"
        (float_of_int (Instance.cardinal instance));
      Obs.set_gauge obs "chase.queue.residual"
        (float_of_int (Queue.length queue));
      Obs.set_gauge obs "chase.max_depth" (float_of_int !max_depth);
      List.iter
        (fun (p, _) ->
          Obs.observe obs "chase.instance.bucket_size"
            (float_of_int (Instance.count_of_pred instance p)))
        (Instance.predicates instance);
      Array.iteri
        (fun i _ ->
          let label = rule_display i in
          if firings.(i) > 0 || prof_time.(i) > 0. then begin
            Obs.incr obs ~label ~by:firings.(i) "chase.rule.firings";
            Obs.incr obs ~label ~by:prof_nulls.(i) "chase.rule.nulls";
            Obs.incr obs ~label ~by:prof_probes.(i) "chase.rule.probes";
            Obs.observe obs ~label "chase.rule.match_s" prof_match.(i);
            Obs.observe obs ~label "chase.rule.time_s" prof_time.(i)
          end)
        rules;
      Obs.instant obs "chase.done"
        ~args:[ ("status", Chase_obs.Jsonv.String outcome) ];
      Obs.span_end obs "chase"
    end
  in
  let status =
    match loop () with
    | status -> status
    | exception e ->
      finish "stopped";
      raise e
  in
  finish (match status with Terminated -> "terminated" | Exhausted _ -> "exhausted");
  {
    instance;
    status;
    variant = config.variant;
    triggers_applied = !triggers_applied;
    triggers_skipped = !triggers_skipped;
    atoms_created = !atoms_created;
    nulls_created = !null_counter;
    max_depth = !max_depth;
    elapsed = Limits.Monitor.elapsed monitor;
    rule_firings = firing_table ();
    queue_residual = Queue.length queue;
    derivations = !derivations;
  }

(** [is_model rules ins]: every trigger on [ins] is satisfied — [ins]
    contains an extension of every body match to a head match. *)
let is_model rules ins =
  List.for_all
    (fun r ->
      let ok = ref true in
      Hom.iter ins (Tgd.body r) (fun sub ->
          if
            !ok
            && not
                 (Hom.exists
                    ~init:(Subst.restrict sub (Tgd.frontier r))
                    ins (Tgd.head r))
          then ok := false);
      !ok)
    rules

(** [check_provenance result ~db]: every fact of the partial instance is
    either a database fact or carries a derivation record that replays —
    its parents (the body under its slots, so the body image by
    construction) are present and database facts or derived, its
    existential slots hold distinct nulls that occur in no parent, and the
    head under its slots reproduces the fact.  This is the soundness
    certificate of a degraded (limit-breached) run. *)
let check_provenance result ~db =
  let dbt = Atom.Tbl.create 64 in
  List.iter (fun a -> Atom.Tbl.replace dbt a ()) db;
  let problem = ref None in
  let fail fmt = Fmt.kstr (fun s -> if !problem = None then problem := Some s) fmt in
  let fresh vals parents k =
    let old t = Term.equal vals.(k) t in
    Term.is_null vals.(k)
    && (not (List.exists (fun p -> Array.exists old (Atom.args p)) parents))
    && not (Array.exists old (Array.sub vals 0 k))
  in
  Instance.iter
    (fun a ->
      if (not (Atom.Tbl.mem dbt a)) && !problem = None then
        match derivation result a with
        | None ->
          fail "fact %a is neither a database fact nor derived" Atom.pp a
        | Some d ->
          let c = d.Derivation.rule in
          let n = Array.length c.Trigger.vars in
          if Array.length d.Derivation.vals <> n then
            fail "the derivation of %a binds %d slots, its rule has %d" Atom.pp a
              (Array.length d.Derivation.vals) n
          else begin
            let parents = Derivation.parents d in
            List.iter
              (fun p ->
                if not (Instance.mem result.instance p) then
                  fail "parent %a of %a is missing from the instance" Atom.pp p Atom.pp a
                else if (not (Atom.Tbl.mem dbt p)) && derivation result p = None then
                  fail "parent %a of %a is underived" Atom.pp p Atom.pp a)
              parents;
            for k = c.Trigger.n_body to n - 1 do
              if not (fresh d.Derivation.vals parents k) then
                fail "existential slot %s of the derivation of %a holds %a, not a fresh null"
                  c.Trigger.vars.(k) Atom.pp a Term.pp d.Derivation.vals.(k)
            done;
            if
              not
                (Array.exists
                   (fun h -> Atom.equal a (Template.instantiate d.Derivation.vals h))
                   c.Trigger.head)
            then fail "fact %a is not produced by its recorded trigger" Atom.pp a
          end)
    result.instance;
  match !problem with None -> Ok () | Some msg -> Error msg

let pp_result fm r =
  Fmt.pf fm
    "@[<v>%a chase: %s@ facts: %d (created %d)@ triggers: %d applied%s@ nulls: \
     %d@ max depth: %d@]"
    Variant.pp r.variant
    (match r.status with
    | Terminated -> "terminated"
    | Exhausted e ->
      Fmt.str "budget exhausted: %a" Limits.pp_breach e.Limits.Exhaustion.breach)
    (Instance.cardinal r.instance)
    r.atoms_created r.triggers_applied
    (if r.triggers_skipped > 0 then Fmt.str ", %d skipped" r.triggers_skipped
     else "")
    r.nulls_created r.max_depth

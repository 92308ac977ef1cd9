(** Resource governance for chase runs.

    The chase is a semi-decision procedure: on non-terminating inputs it
    runs forever, so every entry point that chases anything takes a
    [Limits.t] — one record unifying the counter budgets (triggers, atoms,
    nulls, derivation depth) with a wall-clock deadline and a cooperative
    cancellation token.  Counter budgets are checked on every step; the
    clock and the token are consulted every [check_every] steps, so a
    deadline or a cancellation is honoured within a bounded number of
    trigger applications.

    The clock is injectable ([clock] defaults to [Unix.gettimeofday]) and
    the cap fields are mutable: both are the hooks the fault-injection
    harness ({!Faults}) uses to trip deadline expiry, cancellation and
    allocation caps at chosen steps while exercising the {e real}
    limit-checking paths of the engine.

    A breached limit never throws: the engine degrades gracefully and
    returns the partial instance together with a structured
    {!Exhaustion.reason} saying which limit tripped, which rule dominated
    the trigger firings, the null-growth rate over the last window, and
    the deepest derivation chain — the diagnostics a divergent run needs
    (cf. the experimental study of Calautti–Milani–Pieris 2023). *)

(** Cooperative cancellation: a token shared between the caller and the
    running chase, checked at limit-check cadence. *)
module Cancel = struct
  type t = {
    mutable cancelled : bool;
    mutable why : string option;
  }

  let create () = { cancelled = false; why = None }

  let cancel ?reason t =
    if not t.cancelled then begin
      t.cancelled <- true;
      t.why <- reason
    end

  let is_cancelled t = t.cancelled
  let reason t = t.why
end

(** A point-in-time reading of the run's resource meters, handed to the
    [on_gauge] probe before the limits are evaluated. *)
type gauge = {
  g_steps : int;  (** trigger applications so far *)
  g_facts : int;  (** current instance cardinality *)
  g_nulls : int;  (** fresh nulls invented so far *)
  g_depth : int;  (** deepest derivation chain so far *)
  g_elapsed : float;  (** wall-clock seconds since the run started *)
}

type t = {
  mutable max_triggers : int option;
      (** stop after this many trigger applications *)
  mutable max_atoms : int option;
      (** stop once the instance reaches this many facts *)
  mutable max_nulls : int option;
      (** stop once this many fresh nulls have been invented *)
  mutable max_depth : int option;
      (** stop once a derivation chain exceeds this depth *)
  mutable timeout : float option;
      (** wall-clock deadline, in seconds from the start of the run *)
  cancel : Cancel.t option;  (** cooperative cancellation token *)
  check_every : int;
      (** consult the clock and the token every N steps (counters are
          checked on every step) *)
  clock : unit -> float;  (** injectable wall clock, for tests and faults *)
  on_gauge : (t -> gauge -> unit) option;
      (** probe run before each limit evaluation; may mutate the caps or
          cancel the token — the fault-injection hook *)
}

let make ?max_triggers ?max_atoms ?max_nulls ?max_depth ?timeout ?cancel
    ?(check_every = 16) ?(clock = Unix.gettimeofday) ?on_gauge () =
  {
    max_triggers;
    max_atoms;
    max_nulls;
    max_depth;
    timeout;
    cancel;
    check_every = max 1 check_every;
    clock;
    on_gauge;
  }

let default = make ~max_triggers:100_000 ~max_atoms:200_000 ()

(** The historical coupling: a trigger budget of [b] with an atom budget
    of [4 * b]. *)
let of_budget b = make ~max_triggers:b ~max_atoms:(4 * b) ()

(* A physical copy, so mutating the caps of one run (fault injection,
   [remaining]) cannot leak into another run sharing the record. *)
let copy l = { l with check_every = l.check_every }

(** [remaining l ~steps ~elapsed] is [l] with the trigger budget and the
    deadline reduced by what a previous phase already consumed — how a
    multi-round driver ({!Egd_chase}) threads one overall budget through
    its inner runs. *)
let remaining l ~steps ~elapsed =
  let l' = copy l in
  (match l.max_triggers with
  | Some n -> l'.max_triggers <- Some (max 0 (n - steps))
  | None -> ());
  (match l.timeout with
  | Some d -> l'.timeout <- Some (Float.max 0. (d -. elapsed))
  | None -> ());
  l'

type breach =
  | Trigger_budget of int
  | Atom_budget of int
  | Null_budget of int
  | Depth_budget of int
  | Deadline of float  (** the configured timeout, in seconds *)
  | Cancelled of string option  (** the reason given at cancellation *)

let pp_breach fm = function
  | Trigger_budget n -> Fmt.pf fm "trigger budget of %d applications" n
  | Atom_budget n -> Fmt.pf fm "atom budget of %d facts" n
  | Null_budget n -> Fmt.pf fm "null budget of %d fresh nulls" n
  | Depth_budget n -> Fmt.pf fm "derivation-depth budget of %d" n
  | Deadline d -> Fmt.pf fm "wall-clock deadline of %gs" d
  | Cancelled None -> Fmt.pf fm "cancellation request"
  | Cancelled (Some why) -> Fmt.pf fm "cancellation request (%s)" why

module Exhaustion = struct
  (** Why and how a run stopped short: the structured account returned in
      place of a bare "budget exhausted" status. *)
  type reason = {
    breach : breach;  (** which limit tripped *)
    steps : int;  (** trigger applications performed *)
    elapsed : float;  (** wall-clock seconds consumed *)
    rule_firings : (string * int) list;
        (** per-rule firing counts, descending *)
    dominant_rule : (string * int) option;
        (** the rule that fired most, when any fired *)
    null_rate : float;  (** fresh nulls per trigger over the last window *)
    window : int;  (** length, in triggers, of that window *)
    deepest_chain : int;  (** deepest derivation chain reached *)
  }

  let make ~breach ?(steps = 0) ?(elapsed = 0.) ?(rule_firings = [])
      ?(null_rate = 0.) ?(window = 0) ?(deepest_chain = 0) () =
    let dominant_rule =
      match rule_firings with
      | (name, count) :: _ when count > 0 -> Some (name, count)
      | _ -> None
    in
    {
      breach;
      steps;
      elapsed;
      rule_firings;
      dominant_rule;
      null_rate;
      window;
      deepest_chain;
    }

  (** One-line triage of an exhausted run: a high recent null-growth rate
      is the signature of divergence, a flat one of a slow but possibly
      converging run. *)
  let diagnosis r =
    if r.null_rate >= 0.05 then
      Fmt.str
        "diverging so far: still inventing %.2f fresh nulls per trigger over \
         the last %d triggers"
        r.null_rate r.window
    else
      Fmt.str
        "slow but possibly converging: null growth %.2f per trigger over the \
         last %d triggers"
        r.null_rate r.window

  let pp fm r =
    Fmt.pf fm "@[<v>exhausted: %a@ after: %d triggers in %.2fs@ " pp_breach
      r.breach r.steps r.elapsed;
    (match r.dominant_rule with
    | Some (name, count) ->
      Fmt.pf fm "dominant rule: %s (%d/%d firings)@ " name count r.steps
    | None -> Fmt.pf fm "dominant rule: none fired@ ");
    Fmt.pf fm "null growth: %.2f per trigger (window %d)@ %s@]" r.null_rate
      r.window (diagnosis r)

  let summary r =
    Fmt.str "%a after %d triggers; %s%s" pp_breach r.breach r.steps
      (match r.dominant_rule with
      | Some (name, count) ->
        Fmt.str "dominant rule %s (%d firings); " name count
      | None -> "")
      (diagnosis r)
end

(** A started run's limit checker: captures the start time and caches the
    last clock reading between due checks. *)
module Monitor = struct
  type limits = t

  type t = {
    limits : limits;
    start : float;
    mutable last_elapsed : float;
  }

  let start limits = { limits; start = limits.clock (); last_elapsed = 0. }
  let elapsed m = m.limits.clock () -. m.start
  let limits m = m.limits

  let check ?(force = false) m ~steps ~facts ~nulls ~depth =
    let l = m.limits in
    let due =
      force || Option.is_some l.on_gauge || steps mod l.check_every = 0
    in
    if due then begin
      m.last_elapsed <- elapsed m;
      (match l.on_gauge with
      | Some probe ->
        probe l
          {
            g_steps = steps;
            g_facts = facts;
            g_nulls = nulls;
            g_depth = depth;
            g_elapsed = m.last_elapsed;
          };
        (* the probe may have skewed the clock or tightened the deadline *)
        m.last_elapsed <- elapsed m
      | None -> ())
    end;
    let cancelled =
      match l.cancel with Some c -> Cancel.is_cancelled c | None -> false
    in
    if cancelled then
      let why =
        match l.cancel with Some c -> Cancel.reason c | None -> None
      in
      Some (Cancelled why)
    else
      match l.timeout with
      | Some d when due && m.last_elapsed >= d -> Some (Deadline d)
      | _ -> (
        match l.max_triggers with
        | Some n when steps >= n -> Some (Trigger_budget n)
        | _ -> (
          match l.max_atoms with
          | Some n when facts >= n -> Some (Atom_budget n)
          | _ -> (
            match l.max_nulls with
            | Some n when nulls >= n -> Some (Null_budget n)
            | _ -> (
              match l.max_depth with
              | Some n when depth > n -> Some (Depth_budget n)
              | _ -> None))))

  let interrupted m =
    let l = m.limits in
    match l.cancel with
    | Some c when Cancel.is_cancelled c -> Some (Cancelled (Cancel.reason c))
    | _ -> (
      match l.timeout with
      | Some d when elapsed m >= d -> Some (Deadline d)
      | _ -> None)
end

(** A durability session: the glue between the engine's [on_trigger]
    hook and the journal/snapshot writers.  One journal record per
    trigger application; an atomic snapshot of the full history every
    [snapshot_every] records when a snapshot path is configured.  A
    continued session checks the journaled steps of a re-run instead of
    appending them. *)

open Chase_logic

type t

val snapshot_path : string -> string
(** The conventional snapshot path for a journal: [journal ^ ".snap"]. *)

val start :
  journal:string ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?fsync_every:int ->
  ?fault:Chase_engine.Faults.write_fault ->
  ?faults:Chase_engine.Faults.write_fault list ->
  ?obs:Chase_obs.Obs.t ->
  variant:Chase_engine.Variant.t ->
  rules:Tgd.t list ->
  db:Atom.t list ->
  unit ->
  t
(** Open a fresh journal (truncating any previous file) for a new run.
    [snapshot_every] defaults to 0 (no snapshots); [fsync_every] to 64.
    [obs] flows into the journal and snapshot writers (append/fsync and
    snapshot-write telemetry). *)

val continue_ :
  journal:string ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  ?fsync_every:int ->
  ?fault:Chase_engine.Faults.write_fault ->
  ?faults:Chase_engine.Faults.write_fault list ->
  ?obs:Chase_obs.Obs.t ->
  Recovery.report ->
  t
(** Continue a journal just read by {!Recovery.recover}.  Run the chase
    from step zero with this session's {!on_trigger}, inside {!run}: each
    of the first [List.length report.history] steps is checked against
    the journaled record ({!Recovery.expect}; a difference raises
    {!Recovery.Mismatch}), and only later steps are appended.  The
    journal is repaired ({!Recovery.repair}) and opened for appending
    at the first append, so a refused resume, or a run that stops
    before the journal's end, leaves the file byte for byte as it was.
    The report seeds the in-memory history so snapshots stay
    complete. *)

val on_trigger :
  t ->
  step:int ->
  rule_index:int ->
  depth:int ->
  created_nulls:int list ->
  Tgd.t ->
  Subst.t ->
  Atom.t list ->
  unit
(** Exactly the engine hook's shape: pass as
    [Engine.run ~on_trigger:(Session.on_trigger s)].
    @raise Faults.Crash when an armed write fault fires.
    @raise Recovery.Mismatch when a continued session's re-run differs
    from its journal. *)

val finish : t -> unit
(** Final snapshot (when configured and due) + journal [fsync]/close. *)

val run :
  t ->
  (unit -> Chase_engine.Engine.result) ->
  (Chase_engine.Engine.result, string) result
(** [run t f] runs [f] — an [Engine.run] whose hook is [on_trigger t] —
    then {!finish}es [t].  In a continued session the run is checked
    ({!Recovery.checked}): a step that differs from its record, or a run
    that terminates before the journal's end, is an
    [Error "journal record j: …"]. *)

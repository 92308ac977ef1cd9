(** Recovery: read a journal (plus an optional snapshot) and choose the
    history to resume; then check a re-run of the chase against that
    history.

    A resumed run is a fresh {!Chase_engine.Engine.run} from step zero.
    The FIFO engine is deterministic, so its first steps must reproduce
    the journaled records exactly; {!expect} compares each regenerated
    step with the next record, byte for byte, and only steps past the
    journal's last record are new.  {!Session.continue_} runs this
    check during a resume; {!verify} is the same check as a re-run
    capped at the journal's length. *)

open Chase_logic

type report = {
  header : Journal.header;
  history : Codec.step_record list;  (** the history to check, in order *)
  journal_records : int;  (** records in the journal's valid prefix *)
  snapshot_step : int;  (** last step held by the snapshot; 0 if none *)
  torn : (int * string) option;
      (** byte offset and reason when a corrupt tail was detected *)
}

val recover :
  ?cancel:Chase_engine.Limits.Cancel.t ->
  ?snapshot:string ->
  journal:string ->
  variant:Chase_engine.Variant.t ->
  rules:Tgd.t list ->
  db:Atom.t list ->
  unit ->
  (report, string) result
(** Read the journal's valid prefix, match its header against the
    program, and take the snapshot's history instead when it is ahead
    of that prefix.  [Error] when the journal is missing, has a bad
    magic or corrupt header, or identifies a different program (digest
    mismatch); a torn {e tail} is not an error.  Nothing is written,
    and no record is checked here: that is the re-run's job
    ({!expect}).  [cancel] is checked before the journal is read and
    every 16 records while it is decoded; a cancelled read is
    [Error "certification cancelled"]. *)

val repair : journal:string -> report -> unit
(** Make the journal hold exactly the report's history, so appends
    continue a well-formed file: rewrite it to the snapshot's history
    when that is ahead of the journal, else truncate a torn tail (a
    no-op on a clean journal).  {!Session.continue_} calls this just
    before its first append, so a refused resume leaves the file as it
    was. *)

(** {1 Checking a re-run against the history} *)

exception Mismatch of string
(** ["journal record j: …"]: the re-run's step [j] differs from the
    journaled one. *)

type check
(** A cursor over a report's history. *)

val check : report -> check

val expect : check -> Codec.step_record -> bool
(** [expect c r] compares the re-run's record [r] with the next
    journaled record: [true] when they are byte-identical (the step is
    already on disk), [false] once the history is used up (the step is
    new).  @raise Mismatch when they differ. *)

val checked :
  check ->
  (unit -> Chase_engine.Engine.result) ->
  (Chase_engine.Engine.result, string) result
(** [checked c run] runs [run] — an [Engine.run] whose hook feeds
    {!expect} [c] — and turns a {!Mismatch} into an [Error].  A run that
    {e terminated} while journaled records remain is an [Error] too: the
    journal holds steps no run of this program takes.  A run that
    stopped on a limit first is fine. *)

val verify :
  ?cancel:Chase_engine.Limits.Cancel.t ->
  variant:Chase_engine.Variant.t ->
  rules:Tgd.t list ->
  db:Atom.t list ->
  report ->
  (unit, string) result
(** The re-run capped at the history's length, {!checked}: what a
    standby runs to certify a shipped journal without touching it.
    Cancelling [cancel] stops the re-run within a few steps; a
    cancelled re-run is an [Error], never a certification. *)

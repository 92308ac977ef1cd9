(** The write-ahead derivation journal: an append-only file of
    length-prefixed, CRC-32-checksummed records, one per trigger
    application, preceded by a header identifying the run (variant and
    digests of the rule set and database).  Reading tolerates a torn or
    corrupt tail — it reports the truncation point instead of failing —
    and a writer can be armed with a {!Faults.write_fault} to simulate a
    crash at a chosen record through the real write path. *)

open Chase_logic

(** {1 Run identity} *)

type header = {
  variant : Chase_engine.Variant.t;
  rules_digest : string;  (** MD5 hex of the canonical rule text *)
  db_digest : string;  (** MD5 hex of the sorted database text *)
  rule_count : int;
}

val header_of :
  variant:Chase_engine.Variant.t -> rules:Tgd.t list -> db:Atom.t list -> header

val matches :
  header ->
  variant:Chase_engine.Variant.t ->
  rules:Tgd.t list ->
  db:Atom.t list ->
  (unit, string) result
(** Refuse a resume against the wrong variant, rule set or database. *)

val encode_header : header -> string
(** Raw header payload (shared with {!Snapshot}'s embedding). *)

val decode_header_reader : Codec.reader -> header
(** @raise Codec.Corrupt on a malformed header. *)

(** {1 Writing} *)

type writer

val create :
  ?fsync_every:int ->
  ?fault:Chase_engine.Faults.write_fault ->
  ?faults:Chase_engine.Faults.write_fault list ->
  ?obs:Chase_obs.Obs.t ->
  string ->
  header ->
  writer
(** Truncate/create the file and write magic + header.  [fsync_every] is
    the number of appends between [fsync]s (default 64; 0 = only on
    {!sync}/{!close}); every append is flushed to the OS regardless.
    [fault]/[faults] arm simulated write faults; they compose with any
    faults armed for this path in {!Chase_engine.Faults.Writes}, so a
    harness can target one journal among many by path alone.  [obs]
    records append/fsync latency histograms ([journal.append_s],
    [journal.fsync_s]) and record/byte counters. *)

val open_append :
  ?fsync_every:int ->
  ?fault:Chase_engine.Faults.write_fault ->
  ?faults:Chase_engine.Faults.write_fault list ->
  ?obs:Chase_obs.Obs.t ->
  string ->
  writer
(** Append to an existing journal (validated beforehand by recovery). *)

val append : writer -> Codec.step_record -> unit
(** @raise Faults.Crash when an armed write fault schedules the simulated
    process death at this record (after its — possibly partial — bytes
    reached the file). *)

val sync : writer -> unit
val close : writer -> unit

(** {1 Reading} *)

type tail =
  | Clean
  | Torn of {
      offset : int;  (** byte offset of the first unusable frame *)
      reason : string;
    }

val pp_tail : Format.formatter -> tail -> unit

val read :
  ?stop:(unit -> bool) ->
  string ->
  (header * Codec.step_record list * tail, string) result
(** The valid prefix of the journal.  [Error] only for a missing file, an
    unreadable file, a bad magic or a corrupt header; any later damage —
    short frame, checksum mismatch, undecodable payload, out-of-order
    step — ends the prefix and is reported as the {!tail}.  [stop] is
    asked before the file is read and then after every 16th record
    decoded; once it answers [true] the read ends with
    [Error "journal read stopped"]. *)

val truncate_at : string -> int -> unit
(** Physically truncate the file at the byte offset (drop a torn tail
    before appending again). *)

val rewrite : string -> header -> Codec.step_record list -> unit
(** Atomically replace the journal with exactly the given history
    (write-to-temp + rename + directory fsync) — used when recovery's
    best history does not coincide with the journal's valid prefix. *)

val tail : string -> offset:int -> (string * int, string) result
(** [tail path ~offset] follows a journal that may still be growing:
    the raw bytes of every {e complete} frame past [offset] (never a
    torn tail), plus the new offset to resume from.  [offset = 0]
    includes the magic and header frame, so the concatenation of
    successive tails is a byte-identical, always-valid journal prefix —
    the unit the replication shipper sends.  [offset] must be 0 or a
    value returned by a previous [tail]. *)

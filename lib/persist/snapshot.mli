(** Atomic snapshots of a chase in progress: the run's full history
    (journal header + step records up to a point) serialized as one
    CRC-32-checked blob, published with write-to-temp + [rename] so a
    reader always sees a complete snapshot or none. *)

type t = {
  header : Journal.header;
  last_step : int;  (** step number of the last record included *)
  records : Codec.step_record list;  (** steps 1..last_step, in order *)
}

val write : ?obs:Chase_obs.Obs.t -> string -> t -> unit
(** Atomic: write-to-temp, [fsync], [rename].  [obs] records the write
    latency and size ([snapshot.write_s], [snapshot.bytes]) and a write
    counter. *)

val read : string -> (t, string) result
(** [Error] on a missing file, bad magic, wrong length, checksum
    mismatch or undecodable payload — a damaged snapshot is simply
    unusable (recovery falls back to the journal alone). *)

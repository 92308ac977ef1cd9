(** A durability session: the glue between the engine's [on_trigger]
    hook and the journal/snapshot writers.

    [start] opens a fresh journal for a run; [continue_] continues a
    recovered one.  {!on_trigger} has exactly the engine hook's shape —
    pass it as [Engine.run ~on_trigger:(Session.on_trigger s)] — and
    appends one journal record per trigger application, publishing an
    atomic snapshot of the full history every [snapshot_every] records
    when a snapshot path is configured.  In a continued session the run
    starts again from step zero: each step the journal already holds is
    checked against it ({!Recovery.expect}) instead of appended, and the
    journal is repaired and opened only at the first append. *)

type t = {
  writer : Journal.writer Lazy.t;
  header : Journal.header;
  snapshot : string option;
  snapshot_every : int;  (** records between snapshots; 0 = never *)
  obs : Chase_obs.Obs.t;
  check : Recovery.check option;
      (** in a continued session: the journaled steps still to match *)
  mutable history_rev : Codec.step_record list;
  mutable last_step : int;
  mutable since_snapshot : int;
}

let snapshot_path journal = journal ^ ".snap"

let start ~journal ?snapshot ?(snapshot_every = 0) ?(fsync_every = 64) ?fault
    ?faults ?(obs = Chase_obs.Obs.disabled) ~variant ~rules ~db () =
  let header = Journal.header_of ~variant ~rules ~db in
  let writer =
    Lazy.from_val
      (Journal.create ~fsync_every ?fault ?faults ~obs journal header)
  in
  {
    writer;
    header;
    snapshot;
    snapshot_every;
    obs;
    check = None;
    history_rev = [];
    last_step = 0;
    since_snapshot = 0;
  }

let continue_ ~journal ?snapshot ?(snapshot_every = 0) ?(fsync_every = 64)
    ?fault ?faults ?(obs = Chase_obs.Obs.disabled) (report : Recovery.report) =
  let writer =
    lazy
      (Recovery.repair ~journal report;
       Journal.open_append ~fsync_every ?fault ?faults ~obs journal)
  in
  {
    writer;
    header = report.Recovery.header;
    snapshot;
    snapshot_every;
    obs;
    check = Some (Recovery.check report);
    history_rev = List.rev report.Recovery.history;
    last_step = List.length report.Recovery.history;
    since_snapshot = 0;
  }

let write_snapshot t =
  match t.snapshot with
  | None -> ()
  | Some path ->
    Snapshot.write ~obs:t.obs path
      {
        Snapshot.header = t.header;
        last_step = t.last_step;
        records = List.rev t.history_rev;
      }

let append t sr =
  Journal.append (Lazy.force t.writer) sr;
  t.history_rev <- sr :: t.history_rev;
  t.last_step <- sr.Codec.step;
  if t.snapshot_every > 0 then begin
    t.since_snapshot <- t.since_snapshot + 1;
    if t.since_snapshot >= t.snapshot_every then begin
      write_snapshot t;
      t.since_snapshot <- 0
    end
  end

let on_trigger t ~step ~rule_index ~depth ~created_nulls rule hom
    created_atoms =
  let sr =
    Codec.record ~step ~rule_index ~depth ~created_nulls rule hom
      created_atoms
  in
  match t.check with
  | Some c when Recovery.expect c sr -> ()
  | Some _ | None -> append t sr

let finish t =
  if t.snapshot_every > 0 && t.since_snapshot > 0 then write_snapshot t;
  if Lazy.is_val t.writer then Journal.close (Lazy.force t.writer)

let run t f =
  let outcome =
    match t.check with
    | Some c -> Recovery.checked c f
    | None -> Ok (f ())
  in
  finish t;
  outcome

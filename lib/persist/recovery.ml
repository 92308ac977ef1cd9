(** Recovery: read a journal (plus an optional snapshot), choose the
    history to resume — and check a re-run against that history.

    There is one recovery semantics.  The FIFO engine is deterministic,
    so a journal of [k] records is exactly the first [k] steps of one
    chase sequence; a resumed run is a fresh {!Engine.run} from step
    zero whose [on_trigger] hook compares each regenerated step, byte
    for byte ({!Codec.encode_step}), with the next journaled record
    ({!expect}).  Nothing is restored into the engine, so a resumed
    run's output is the uninterrupted run's output, and a journal that
    passes belongs to a real run of these rules on this database. *)

module Engine = Chase_engine.Engine

type report = {
  header : Journal.header;
  history : Codec.step_record list;  (** the history to check, in order *)
  journal_records : int;  (** records in the journal's valid prefix *)
  snapshot_step : int;  (** last step held by the snapshot; 0 if none *)
  torn : (int * string) option;
      (** byte offset and reason when a corrupt tail was detected *)
}

let cancelled = function
  | Some k -> Chase_engine.Limits.Cancel.is_cancelled k
  | None -> false

let recover ?cancel ?snapshot ~journal ~variant ~rules ~db () =
  match Journal.read ~stop:(fun () -> cancelled cancel) journal with
  | Error _ when cancelled cancel -> Error "certification cancelled"
  | Error m -> Error m
  | Ok (header, jrecords, tail) -> (
    match Journal.matches header ~variant ~rules ~db with
    | Error m -> Error m
    | Ok () ->
      let journal_step = List.length jrecords in
      let snap =
        match snapshot with
        | Some path when Sys.file_exists path -> (
          match Snapshot.read path with
          | Ok s when s.Snapshot.header = header -> Some s
          | Ok _ | Error _ -> None (* unusable snapshot: fall back *))
        | Some _ | None -> None
      in
      let snapshot_step =
        match snap with Some s -> s.Snapshot.last_step | None -> 0
      in
      let history =
        match snap with
        | Some s when s.Snapshot.last_step > journal_step ->
          s.Snapshot.records
        | Some _ | None -> jrecords
      in
      Ok
        {
          header;
          history;
          journal_records = journal_step;
          snapshot_step;
          torn =
            (match tail with
            | Journal.Torn { offset; reason } -> Some (offset, reason)
            | Journal.Clean -> None);
        })

let repair ~journal report =
  if List.length report.history > report.journal_records then
    (* the snapshot is ahead of the journal's valid prefix *)
    Journal.rewrite journal report.header report.history
  else
    Option.iter
      (fun (offset, _) -> Journal.truncate_at journal offset)
      report.torn

(* ------------------------------------------------------------------ *)
(* Checking a re-run against the history                               *)
(* ------------------------------------------------------------------ *)

exception Mismatch of string

type check = {
  mutable pending : Codec.step_record list;
  mutable checked : int;  (** records the re-run has matched so far *)
}

let check report = { pending = report.history; checked = 0 }

(* The first field in which the journaled record [j] and the re-run's
   record [r] differ — a diagnostic only: the test is byte equality. *)
let difference (j : Codec.step_record) (r : Codec.step_record) =
  let open Codec in
  let show what pp a b =
    Fmt.str "%s %a in the journal, %a in the re-run" what pp a pp b
  in
  let atoms = Fmt.(brackets (list ~sep:comma Chase_logic.Atom.pp)) in
  if j.step <> r.step then show "step" Fmt.int j.step r.step
  else if j.rule_index <> r.rule_index then
    show "rule index" Fmt.int j.rule_index r.rule_index
  else if j.rule_name <> r.rule_name then
    show "rule name" Fmt.Dump.string j.rule_name r.rule_name
  else if not (Chase_logic.Subst.equal j.hom r.hom) then
    show "homomorphism" Chase_logic.Subst.pp j.hom r.hom
  else if j.depth <> r.depth then show "depth" Fmt.int j.depth r.depth
  else if j.created_nulls <> r.created_nulls then
    show "null stamps" Fmt.(Dump.list int) j.created_nulls r.created_nulls
  else show "created atoms" atoms j.created_atoms r.created_atoms

let expect c sr =
  match c.pending with
  | [] -> false
  | j :: rest ->
    if not (String.equal (Codec.encode_step j) (Codec.encode_step sr)) then
      raise
        (Mismatch
           (Fmt.str "journal record %d: %s" (c.checked + 1) (difference j sr)));
    c.pending <- rest;
    c.checked <- c.checked + 1;
    true

let settle c status =
  match (c.pending, status) with
  | _ :: _, Engine.Terminated ->
    Error
      (Fmt.str "journal record %d: the chase terminated after step %d"
         (c.checked + 1) c.checked)
  | _, (Engine.Terminated | Engine.Exhausted _) -> Ok ()

let checked c run =
  match run () with
  | result -> Result.map (fun () -> result) (settle c result.Engine.status)
  | exception Mismatch m -> Error m

let verify ?cancel ~variant ~rules ~db report =
  let c = check report in
  let config =
    {
      Engine.variant;
      limits =
        Chase_engine.Limits.make ?cancel
          ~max_triggers:(List.length report.history) ();
    }
  in
  let on_trigger ~step ~rule_index ~depth ~created_nulls rule hom added =
    ignore
      (expect c
         (Codec.record ~step ~rule_index ~depth ~created_nulls rule hom added))
  in
  match checked c (fun () -> Engine.run ~config ~on_trigger rules db) with
  | Error _ as e -> e
  | Ok _ -> (
    (* a cancelled re-run stopped short of the history: not certified *)
    if cancelled cancel then Error "certification cancelled" else Ok ())

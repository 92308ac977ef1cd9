(** Atomic snapshots of a chase in progress.

    A snapshot is the run's full history — the journal header
    plus every step record up to a point — serialized as one
    CRC-32-checked blob and published with write-to-temp + [rename], so
    a reader always sees either the previous snapshot or the new one,
    never a partial file.  Recovery prefers the snapshot when the
    journal's valid prefix is shorter (e.g. the journal lost more bytes
    than the snapshot cadence), and the journal otherwise. *)

let magic = "CHSNAP1\n"

type t = {
  header : Journal.header;
  last_step : int;  (** step number of the last record included *)
  records : Codec.step_record list;  (** steps 1..last_step, in order *)
}

let encode s =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Journal.encode_header s.header);
  Codec.put_varint b s.last_step;
  Codec.put_varint b (List.length s.records);
  List.iter (fun sr -> Codec.put_string b (Codec.encode_step sr)) s.records;
  Buffer.contents b

let decode payload =
  let r = Codec.reader payload in
  let header = Journal.decode_header_reader r in
  let last_step = Codec.get_varint r in
  let n = Codec.get_varint r in
  if n > 0x1000000 then Codec.corrupt "implausible record count %d" n;
  let records = List.init n (fun _ -> Codec.decode_step (Codec.get_string r)) in
  if not (Codec.at_end r) then Codec.corrupt "trailing bytes in the snapshot";
  { header; last_step; records }

let fsync_oc oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(** Write-to-temp + rename: the snapshot at [path] is always complete. *)
let write ?(obs = Chase_obs.Obs.disabled) path s =
  let module Obs = Chase_obs.Obs in
  let tracked = Obs.enabled obs in
  let t0 = if tracked then Obs.now obs else 0. in
  let payload = encode s in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc magic;
  let b = Buffer.create 8 in
  Codec.put_u32 b (String.length payload);
  Codec.put_u32 b (Codec.Crc32.digest payload);
  output_string oc (Buffer.contents b);
  output_string oc payload;
  fsync_oc oc;
  close_out_noerr oc;
  (* durable publish: the rename itself must survive a power loss *)
  Fsutil.rename_durable tmp path;
  if tracked then begin
    Obs.observe obs "snapshot.write_s" (Obs.now obs -. t0);
    Obs.observe obs "snapshot.bytes"
      (float_of_int (String.length magic + 8 + String.length payload));
    Obs.incr obs "snapshot.writes"
  end

let read path =
  if not (Sys.file_exists path) then
    Error (Fmt.str "no such snapshot: %s" path)
  else begin
    let data =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
      with Sys_error m -> Error m
    in
    match data with
    | Error m -> Error (Fmt.str "cannot read snapshot %s: %s" path m)
    | Ok data ->
      let mlen = String.length magic in
      if String.length data < mlen + 8 || String.sub data 0 mlen <> magic then
        Error (Fmt.str "%s is not a chase snapshot (bad magic)" path)
      else begin
        let r = Codec.reader ~pos:mlen data in
        let len = Codec.get_u32 r in
        let crc = Codec.get_u32 r in
        if len < 0 || mlen + 8 + len <> String.length data then
          Error (Fmt.str "snapshot %s: wrong length (truncated?)" path)
        else if Codec.Crc32.digest ~pos:(mlen + 8) ~len data <> crc then
          Error (Fmt.str "snapshot %s: checksum mismatch" path)
        else
          try Ok (decode (String.sub data (mlen + 8) len))
          with Codec.Corrupt m -> Error (Fmt.str "snapshot %s: %s" path m)
      end
  end

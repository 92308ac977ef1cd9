(** The write-ahead derivation journal.

    An append-only file: an 8-byte magic, then length-prefixed,
    CRC-32-checksummed frames.  The first frame is the header (chase
    variant plus digests of the rule set and the database, so a resume
    against the wrong program is refused); every further frame is one
    {!Codec.step_record} — one trigger application.  Appends reach the
    OS on every record and are [fsync]ed on a configurable cadence, so
    a crash loses at most the records since the last sync and at worst
    leaves one torn frame at the tail, which {!read} detects (short
    frame, bad checksum, undecodable payload, out-of-order step) and
    reports as a truncation point instead of failing.

    A writer can be armed with a {!Faults.write_fault} to simulate the
    crash at a chosen record — kill between appends, or a torn partial
    append — through the {e real} write path. *)

open Chase_logic
module Obs = Chase_obs.Obs

let magic = "CHJNL01\n"
let version = 1

(* ------------------------------------------------------------------ *)
(* Header: run identity                                                *)
(* ------------------------------------------------------------------ *)

type header = {
  variant : Chase_engine.Variant.t;
  rules_digest : string;  (** MD5 hex of the canonical rule text *)
  db_digest : string;  (** MD5 hex of the sorted database text *)
  rule_count : int;
}

let digest_rules rules =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map Tgd.to_string rules)))

let digest_db db =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.sort String.compare (List.map Atom.to_string db))))

let header_of ~variant ~rules ~db =
  {
    variant;
    rules_digest = digest_rules rules;
    db_digest = digest_db db;
    rule_count = List.length rules;
  }

let matches h ~variant ~rules ~db =
  if h.variant <> variant then
    Error
      (Fmt.str "journal was written for the %s chase, not %s"
         (Chase_engine.Variant.to_string h.variant)
         (Chase_engine.Variant.to_string variant))
  else if h.rules_digest <> digest_rules rules then
    Error "journal was written for a different rule set"
  else if h.db_digest <> digest_db db then
    Error "journal was written for a different database"
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let tag_header = 'H'
let tag_step = 'S'

let frame tag payload =
  let body = String.make 1 tag ^ payload in
  let b = Buffer.create (String.length body + 8) in
  Codec.put_u32 b (String.length body);
  Codec.put_u32 b (Codec.Crc32.digest body);
  Buffer.add_string b body;
  Buffer.contents b

let encode_header h =
  let b = Buffer.create 96 in
  Codec.put_varint b version;
  Codec.put_string b (Chase_engine.Variant.to_string h.variant);
  Codec.put_string b h.rules_digest;
  Codec.put_string b h.db_digest;
  Codec.put_varint b h.rule_count;
  Buffer.contents b

let decode_header_reader r =
  let v = Codec.get_varint r in
  if v <> version then Codec.corrupt "unsupported journal version %d" v;
  let variant_s = Codec.get_string r in
  let variant =
    match Chase_engine.Variant.of_string variant_s with
    | Some v -> v
    | None -> Codec.corrupt "unknown chase variant %S" variant_s
  in
  let rules_digest = Codec.get_string r in
  let db_digest = Codec.get_string r in
  let rule_count = Codec.get_varint r in
  { variant; rules_digest; db_digest; rule_count }

let decode_header payload = decode_header_reader (Codec.reader payload)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  oc : out_channel;
  fsync_every : int;  (** records between [fsync]s; 0 = only on close *)
  mutable unsynced : int;
  mutable appended : int;  (** records appended through this writer *)
  mutable fsyncs : int;  (** [fsync]s performed through this writer *)
  faults : Chase_engine.Faults.write_fault list;
  obs : Obs.t;  (** append/fsync latency telemetry *)
}

let fsync_oc oc =
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let crash w msg =
  fsync_oc w.oc;
  close_out_noerr w.oc;
  raise (Chase_engine.Faults.Crash msg)

(* [fsync] through the writer: same call, with the latency observed and
   an armed [Fsync_fail] honoured (the k-th sync dies fatally). *)
let fsync_w w =
  w.fsyncs <- w.fsyncs + 1;
  if
    List.exists
      (function
        | Chase_engine.Faults.Fsync_fail k -> w.fsyncs = k | _ -> false)
      w.faults
  then crash w (Fmt.str "fsync %d failed" w.fsyncs);
  if Obs.enabled w.obs then begin
    let t0 = Obs.now w.obs in
    fsync_oc w.oc;
    Obs.observe w.obs "journal.fsync_s" (Obs.now w.obs -. t0);
    Obs.incr w.obs "journal.fsyncs"
  end
  else fsync_oc w.oc

(* Explicitly passed faults compose with whatever the per-path registry
   has armed for this file — the hook that lets a chaos harness target
   one session among many without threading options through. *)
let armed_faults ?fault ?(faults = []) path =
  Option.to_list fault @ faults @ Chase_engine.Faults.Writes.armed_for path

let create ?(fsync_every = 64) ?fault ?faults ?(obs = Obs.disabled) path h =
  let oc = open_out_bin path in
  output_string oc magic;
  output_string oc (frame tag_header (encode_header h));
  fsync_oc oc;
  {
    oc;
    fsync_every;
    unsynced = 0;
    appended = 0;
    fsyncs = 0;
    faults = armed_faults ?fault ?faults path;
    obs;
  }

let open_append ?(fsync_every = 64) ?fault ?faults ?(obs = Obs.disabled) path =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
  in
  {
    oc;
    fsync_every;
    unsynced = 0;
    appended = 0;
    fsyncs = 0;
    faults = armed_faults ?fault ?faults path;
    obs;
  }

let append w sr =
  let tracked = Obs.enabled w.obs in
  let t0 = if tracked then Obs.now w.obs else 0. in
  w.appended <- w.appended + 1;
  let fr = frame tag_step (Codec.encode_step sr) in
  (* A torn write at this record beats a kill at this record: both can
     be armed on one stream, and the torn partial frame is the stronger
     (corrupting) injection. *)
  let torn =
    List.find_map
      (function
        | Chase_engine.Faults.Torn_write (k, bytes) when w.appended = k ->
          Some bytes
        | _ -> None)
      w.faults
  and killed =
    List.exists
      (function
        | Chase_engine.Faults.Kill_after_record k -> w.appended = k
        | _ -> false)
      w.faults
  in
  (match torn with
  | Some bytes ->
    output_string w.oc (String.sub fr 0 (min bytes (String.length fr)));
    crash w (Fmt.str "torn write at journal record %d (%d bytes)" w.appended
               bytes)
  | None ->
    output_string w.oc fr;
    if killed then
      crash w (Fmt.str "killed after journal record %d" w.appended));
  flush w.oc;
  w.unsynced <- w.unsynced + 1;
  if w.fsync_every > 0 && w.unsynced >= w.fsync_every then begin
    fsync_w w;
    w.unsynced <- 0
  end;
  if tracked then begin
    (* includes a cadence fsync when this append triggered one — the
       latency the chase actually saw *)
    Obs.observe w.obs "journal.append_s" (Obs.now w.obs -. t0);
    Obs.incr w.obs "journal.records";
    Obs.incr w.obs ~by:(String.length fr) "journal.bytes"
  end

let sync w =
  fsync_w w;
  w.unsynced <- 0

let close w =
  fsync_w w;
  close_out_noerr w.oc

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type tail =
  | Clean
  | Torn of {
      offset : int;  (** byte offset of the first unusable frame *)
      reason : string;
    }

let pp_tail fm = function
  | Clean -> Fmt.string fm "clean tail"
  | Torn { offset; reason } ->
    Fmt.pf fm "torn tail at byte %d: %s" offset reason

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One frame at [pos]: [Ok (tag, payload, next_pos)] or the torn-tail
   reason.  [`Eof] when [pos] is exactly the end of the data. *)
let parse_frame data pos =
  let len_total = String.length data in
  if pos = len_total then `Eof
  else if pos + 8 > len_total then `Torn "short frame header"
  else begin
    let r = Codec.reader ~pos data in
    let len = Codec.get_u32 r in
    let crc = Codec.get_u32 r in
    if len <= 0 || len > len_total - pos - 8 then
      `Torn "frame length overruns the file"
    else if Codec.Crc32.digest ~pos:(pos + 8) ~len data <> crc then
      `Torn "checksum mismatch"
    else
      `Frame (data.[pos + 8], String.sub data (pos + 9) (len - 1), pos + 8 + len)
  end

exception Stopped

let read ?(stop = fun () -> false) path =
  if stop () then Error "journal read stopped"
  else if not (Sys.file_exists path) then Error (Fmt.str "no such journal: %s" path)
  else begin
    let data = try Ok (read_file path) with Sys_error m -> Error m in
    match data with
    | Error m -> Error (Fmt.str "cannot read journal %s: %s" path m)
    | Ok data ->
      if
        String.length data < String.length magic
        || String.sub data 0 (String.length magic) <> magic
      then Error (Fmt.str "%s is not a chase journal (bad magic)" path)
      else begin
        match parse_frame data (String.length magic) with
        | `Eof -> Error (Fmt.str "journal %s has no header record" path)
        | `Torn reason ->
          Error (Fmt.str "journal %s: corrupt header record: %s" path reason)
        | `Frame (tag, payload, pos0) -> (
          match
            if tag <> tag_header then
              Error (Fmt.str "journal %s: first record is not a header" path)
            else
              try Ok (decode_header payload)
              with Codec.Corrupt m ->
                Error (Fmt.str "journal %s: corrupt header record: %s" path m)
          with
          | Error _ as e -> e
          | Ok header ->
            let records = ref [] in
            let last_step = ref 0 in
            let rec go pos =
              if !last_step > 0 && !last_step land 15 = 0 && stop () then raise Stopped;
              match parse_frame data pos with
              | `Eof -> Clean
              | `Torn reason -> Torn { offset = pos; reason }
              | `Frame (tag, payload, next) ->
                if tag <> tag_step then
                  Torn { offset = pos; reason = "unknown record tag" }
                else begin
                  match Codec.decode_step payload with
                  | exception Codec.Corrupt m ->
                    Torn { offset = pos; reason = m }
                  | sr ->
                    if sr.Codec.step <> !last_step + 1 then
                      Torn
                        {
                          offset = pos;
                          reason =
                            Fmt.str "out-of-order step %d after %d"
                              sr.Codec.step !last_step;
                        }
                    else begin
                      last_step := sr.Codec.step;
                      records := sr :: !records;
                      go next
                    end
                end
            in
            match go pos0 with
            | tail -> Ok (header, List.rev !records, tail)
            | exception Stopped -> Error "journal read stopped")
      end
  end

let truncate_at path offset = Unix.truncate path offset

let rewrite path h records =
  let tmp = path ^ ".tmp" in
  let w = create ~fsync_every:0 tmp h in
  List.iter (append w) records;
  close w;
  Fsutil.rename_durable tmp path

(* ------------------------------------------------------------------ *)
(* Tailing                                                             *)
(* ------------------------------------------------------------------ *)

(* The replication shipper follows a journal that is still being
   written: [tail] returns the raw bytes of every {e complete} frame
   past [offset] — never a torn tail, so shipped byte ranges always
   end on a frame boundary and the standby's copy is a valid journal
   prefix at all times.  [offset = 0] includes the magic and the header
   frame, so the standby's file is byte-identical to the primary's
   prefix. *)
let tail path ~offset =
  if not (Sys.file_exists path) then Error (Fmt.str "no such journal: %s" path)
  else begin
    match read_file path with
    | exception Sys_error m -> Error (Fmt.str "cannot read journal %s: %s" path m)
    | data ->
      let mlen = String.length magic in
      if String.length data < mlen || String.sub data 0 mlen <> magic then
        Error (Fmt.str "%s is not a chase journal (bad magic)" path)
      else begin
        let start = if offset = 0 then 0 else offset in
        if start > String.length data then
          Error (Fmt.str "journal %s shrank below offset %d" path offset)
        else begin
          (* walk complete frames from the first frame at-or-after
             [start]; [start] must itself be a frame boundary (or 0) —
             tail offsets only ever come from a previous [tail] *)
          let rec skip_to pos =
            (* frames begin right after the magic *)
            if pos >= start then pos
            else
              match parse_frame data pos with
              | `Frame (_, _, next) -> skip_to next
              | `Eof | `Torn _ -> pos
          in
          let first = skip_to mlen in
          if first <> max start mlen then
            Error (Fmt.str "offset %d is not a frame boundary of %s" offset path)
          else begin
            let rec last_good pos =
              match parse_frame data pos with
              | `Frame (_, _, next) -> last_good next
              | `Eof | `Torn _ -> pos
            in
            let stop = last_good first in
            (* offset 0 ships the magic too: the standby's file is then
               a byte-identical journal prefix *)
            let from = if offset = 0 then 0 else first in
            Ok (String.sub data from (stop - from), stop)
          end
        end
      end
  end

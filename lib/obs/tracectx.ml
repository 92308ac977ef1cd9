(** Distributed trace context: compact trace/span identifiers, the
    per-process JSONL {e shard} writer, and the offline merge that
    joins shards into one Chrome-trace file.

    The doctrine is {e propagate ids, ship spans, merge offline}: a
    request carries only a ~34-byte context string across process
    boundaries (client → server → shipper → standby); each process
    appends its own spans to its own local shard file with absolute
    wall-clock timestamps; and [merge_to_chrome] — driven by
    [chasec trace-merge] — joins any set of shards into a single
    trace-event array grouped by trace id.  No process ever blocks on
    another's observability plane, and a shard that was never
    collected costs nothing but a gap in the merged picture.

    Identifiers are 64-bit values rendered as 16 lowercase hex digits,
    minted by a splitmix64 stream seeded from the pid and the clock so
    concurrent processes cannot collide in practice.  A context is the
    pair [trace-span]: the trace id names the whole request tree, the
    span id names the sender's own span so the receiver can parent its
    spans under it. *)

type t = {
  trace : string;  (** 16 hex digits shared by every span of the request *)
  span : string;  (** 16 hex digits naming the current span *)
}

(* ------------------------------------------------------------------ *)
(* Id minting                                                          *)
(* ------------------------------------------------------------------ *)

let splitmix64 s =
  let open Int64 in
  let z = add s 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* One process-wide stream: the seed mixes pid and boot time, and an
   atomic counter advances it — wait-free from any domain or thread.  No
   lazy seed: threads forcing one lazy at once raise [Lazy.Undefined]. *)
let seed =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.shift_left (Int64.of_int (Unix.getpid ())) 40)

let ctr = Atomic.make 1

let fresh_id () =
  let n = Atomic.fetch_and_add ctr 1 in
  let v = splitmix64 (Int64.add seed (Int64.of_int n)) in
  Printf.sprintf "%016Lx" v

let genesis () =
  let trace = fresh_id () in
  { trace; span = fresh_id () }

let child c = { c with span = fresh_id () }

(* ------------------------------------------------------------------ *)
(* Wire form: "<trace>-<span>"                                         *)
(* ------------------------------------------------------------------ *)

let is_hex_id s =
  String.length s = 16
  && String.for_all
       (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
       s

let to_string c = c.trace ^ "-" ^ c.span

let of_string s =
  if String.length s = 33 && s.[16] = '-' then begin
    let trace = String.sub s 0 16 and span = String.sub s 17 16 in
    if is_hex_id trace && is_hex_id span then Some { trace; span } else None
  end
  else None

(* ------------------------------------------------------------------ *)
(* Shard records                                                       *)
(* ------------------------------------------------------------------ *)

type record = {
  r_trace : string;
  r_span : string;
  r_parent : string option;
  r_name : string;
  r_proc : string;
  r_pid : int;
  r_ts_us : float;  (** absolute epoch microseconds *)
  r_dur_us : float;  (** 0 for instants *)
  r_args : (string * Jsonv.t) list;
}

let record_to_json r =
  let base =
    [
      ("trace", Jsonv.String r.r_trace);
      ("span", Jsonv.String r.r_span);
    ]
  in
  let parent =
    match r.r_parent with
    | Some p -> [ ("parent", Jsonv.String p) ]
    | None -> []
  in
  let tail =
    [
      ("name", Jsonv.String r.r_name);
      ("proc", Jsonv.String r.r_proc);
      ("pid", Jsonv.Int r.r_pid);
      ("ts_us", Jsonv.Float r.r_ts_us);
      ("dur_us", Jsonv.Float r.r_dur_us);
    ]
  in
  let args =
    match r.r_args with [] -> [] | a -> [ ("args", Jsonv.Obj a) ]
  in
  Jsonv.Obj (base @ parent @ tail @ args)

let record_of_json j =
  let str k = Option.bind (Jsonv.member k j) Jsonv.to_string_opt in
  let num k = Option.bind (Jsonv.member k j) Jsonv.to_float_opt in
  match (str "trace", str "span", str "name", str "proc", num "ts_us") with
  | Some r_trace, Some r_span, Some r_name, Some r_proc, Some r_ts_us ->
    let r_args =
      match Jsonv.member "args" j with Some (Jsonv.Obj kvs) -> kvs | _ -> []
    in
    Ok
      {
        r_trace;
        r_span;
        r_parent = str "parent";
        r_name;
        r_proc;
        r_pid =
          (match num "pid" with Some p -> int_of_float p | None -> 0);
        r_ts_us;
        r_dur_us = (match num "dur_us" with Some d -> d | None -> 0.);
        r_args;
      }
  | _ -> Error "span record missing trace/span/name/proc/ts_us"

(* ------------------------------------------------------------------ *)
(* The shard writer                                                    *)
(* ------------------------------------------------------------------ *)

(** Append-only JSONL, one record per line, flushed per line so a
    killed process loses at most the line in flight.  The writer never
    raises and never blocks the caller on a sick sink: any open or
    write failure (or an armed [check] fault) flips it into a black
    hole that counts drops — tracing degrades, the chase does not. *)
module Shard = struct
  type writer = {
    mu : Mutex.t;
    proc : string;
    path : string;
    check : unit -> bool;  (** [true] = fail this write (fault hook) *)
    mutable oc : out_channel option;
    mutable drops : int;
  }

  let locked w f =
    Mutex.lock w.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock w.mu) f

  let open_ ?(check = fun () -> false) ~proc path =
    let oc =
      try Some (open_out_gen [ Open_append; Open_creat ] 0o644 path)
      with Sys_error _ -> None
    in
    {
      mu = Mutex.create ();
      proc;
      path;
      check;
      oc;
      drops = (if oc = None then 1 else 0);
    }

  let proc w = w.proc
  let path w = w.path
  let drops w = locked w (fun () -> w.drops)

  let write_record w r =
    locked w (fun () ->
        match w.oc with
        | None -> w.drops <- w.drops + 1
        | Some oc -> (
          try
            if w.check () then failwith "injected sink fault";
            output_string oc (Jsonv.to_string (record_to_json r));
            output_char oc '\n';
            flush oc
          with _ ->
            (* a sick sink is abandoned for good: close it, count the
               drop, and keep counting for every later record *)
            w.drops <- w.drops + 1;
            (try close_out_noerr oc with _ -> ());
            w.oc <- None))

  let span w ~ctx ?parent ~name ~ts_us ~dur_us ?(args = []) () =
    write_record w
      {
        r_trace = ctx.trace;
        r_span = ctx.span;
        r_parent = parent;
        r_name = name;
        r_proc = w.proc;
        r_pid = Unix.getpid ();
        r_ts_us = ts_us;
        r_dur_us = dur_us;
        r_args = args;
      }

  let instant w ~ctx ?parent ~name ~ts_us ?args () =
    span w ~ctx ?parent ~name ~ts_us ~dur_us:0. ?args ()

  let close w =
    locked w (fun () ->
        (match w.oc with Some oc -> (try close_out oc with _ -> ()) | None -> ());
        w.oc <- None)
end

let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Offline merge: shards → one Chrome-trace array                      *)
(* ------------------------------------------------------------------ *)

let parse_shard_line line =
  let line = String.trim line in
  if line = "" then None
  else
    match Jsonv.of_string line with
    | Error _ -> None
    | Ok j -> ( match record_of_json j with Ok r -> Some r | Error _ -> None)

(** [merge_to_chrome records] joins span records from any number of
    shards into one Chrome trace-event array: a metadata ([ph:"M"])
    event names each distinct process, and every span becomes a
    complete ([ph:"X"]) event whose [args] carry the trace/span/parent
    ids so validators (and Perfetto queries) can re-walk the tree.
    Events are ordered by trace id, then start time — one request's
    tree reads contiguously. *)
let merge_to_chrome records =
  let procs = Hashtbl.create 7 in
  let next = ref 0 in
  let pid_of r =
    let key = (r.r_proc, r.r_pid) in
    match Hashtbl.find_opt procs key with
    | Some n -> n
    | None ->
      incr next;
      Hashtbl.replace procs key !next;
      !next
  in
  let sorted =
    List.sort
      (fun a b ->
        match String.compare a.r_trace b.r_trace with
        | 0 -> compare a.r_ts_us b.r_ts_us
        | c -> c)
      records
  in
  let span_events =
    List.map
      (fun r ->
        let vid = pid_of r in
        let args =
          [
            ("trace", Jsonv.String r.r_trace);
            ("span", Jsonv.String r.r_span);
          ]
          @ (match r.r_parent with
            | Some p -> [ ("parent", Jsonv.String p) ]
            | None -> [])
          @ r.r_args
        in
        Jsonv.Obj
          [
            ("name", Jsonv.String r.r_name);
            ("cat", Jsonv.String "chase");
            ("ph", Jsonv.String "X");
            ("ts", Jsonv.Float r.r_ts_us);
            ("dur", Jsonv.Float r.r_dur_us);
            ("pid", Jsonv.Int vid);
            ("tid", Jsonv.Int 1);
            ("args", Jsonv.Obj args);
          ])
      sorted
  in
  let meta =
    Hashtbl.fold
      (fun (proc, ospid) vid acc ->
        Jsonv.Obj
          [
            ("name", Jsonv.String "process_name");
            ("ph", Jsonv.String "M");
            ("ts", Jsonv.Float 0.);
            ("pid", Jsonv.Int vid);
            ("tid", Jsonv.Int 0);
            ( "args",
              Jsonv.Obj
                [
                  ("name", Jsonv.String (Printf.sprintf "%s/%d" proc ospid));
                ] );
          ]
        :: acc)
      procs []
    |> List.sort compare
  in
  Jsonv.List (meta @ span_events)

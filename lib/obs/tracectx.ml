(** The span model: trace contexts, the one span record, its writer and
    its Chrome renderer (see the interface). *)

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

(* The one timestamp source: every span record, every [Obs] instance on
   its default clock and the flight recorder read it.  Wall-clock epoch
   microseconds, so same-host shards merge without clock alignment; it
   can step, and [Obs] clamps what it reads to stay monotone. *)
let now_us () = Unix.gettimeofday () *. 1e6

(* One process-wide stream: the seed mixes pid and boot time, and an
   atomic counter advances it — wait-free from any domain or thread.  No
   lazy seed: threads forcing one lazy at once raise [Lazy.Undefined]. *)
let seed =
  Int64.logxor
    (Int64.of_float (now_us ()))
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
(* The span record                                                     *)
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

(* The label a process puts on its own records: the executable's base
   name without extension ([chase_cli], [chased], …). *)
let program =
  Filename.remove_extension (Filename.basename Sys.executable_name)

let make ~ctx ?parent ?(proc = program) ~name ~ts_us ~dur_us args =
  {
    r_trace = ctx.trace;
    r_span = ctx.span;
    r_parent = parent;
    r_name = name;
    r_proc = proc;
    r_pid = Unix.getpid ();
    r_ts_us = ts_us;
    r_dur_us = dur_us;
    r_args = args;
  }

(* Epoch microseconds are past 1e15, where a JSON float would print
   with 12 significant digits — millisecond resolution — so start
   times are written as whole microseconds. *)
let us_json t = Jsonv.Int (Float.to_int (Float.round t))

let ids r =
  ("trace", Jsonv.String r.r_trace)
  :: ("span", Jsonv.String r.r_span)
  :: (match r.r_parent with Some p -> [ ("parent", Jsonv.String p) ] | None -> [])

let record_to_json r =
  Jsonv.Obj
    (ids r
    @ [
        ("name", Jsonv.String r.r_name);
        ("proc", Jsonv.String r.r_proc);
        ("pid", Jsonv.Int r.r_pid);
        ("ts_us", us_json r.r_ts_us);
        ("dur_us", Jsonv.Float r.r_dur_us);
      ]
    @ match r.r_args with [] -> [] | a -> [ ("args", Jsonv.Obj a) ])

let parse_shard_line line =
  match Jsonv.of_string (String.trim line) with
  | Error _ -> None
  | Ok j -> (
    let str k = Option.bind (Jsonv.member k j) Jsonv.to_string_opt in
    let num k = Option.bind (Jsonv.member k j) Jsonv.to_float_opt in
    match (str "trace", str "span", str "name", str "proc", num "ts_us") with
    | Some r_trace, Some r_span, Some r_name, Some r_proc, Some r_ts_us ->
      Some
        {
          r_trace;
          r_span;
          r_parent = str "parent";
          r_name;
          r_proc;
          r_pid = Option.fold ~none:0 ~some:int_of_float (num "pid");
          r_ts_us;
          r_dur_us = Option.value ~default:0. (num "dur_us");
          r_args =
            (match Jsonv.member "args" j with Some (Jsonv.Obj kvs) -> kvs | _ -> []);
        }
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)
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
      check;
      oc;
      drops = (if oc = None then 1 else 0);
    }

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

  let close w =
    locked w (fun () ->
        (match w.oc with Some oc -> (try close_out oc with _ -> ()) | None -> ());
        w.oc <- None)
end

(* ------------------------------------------------------------------ *)
(* The bracket: one timed child span                                   *)
(* ------------------------------------------------------------------ *)

let span w ?parent ?ctx ?since ?(args = fun _ -> []) name f =
  let ctx = match ctx with Some _ -> ctx | None -> Option.map child parent in
  match (w, ctx) with
  | Some w, Some ctx ->
    let ts_us = match since with Some t -> t | None -> now_us () in
    let v = f () in
    Shard.write_record w
      (make ~ctx
         ?parent:(Option.map (fun p -> p.span) parent)
         ~proc:w.Shard.proc ~name ~ts_us
         ~dur_us:(now_us () -. ts_us)
         (args v));
    v
  | _ -> f ()

let instant w ?parent ?(args = []) name =
  match (w, parent) with
  | Some w, Some p ->
    Shard.write_record w
      (make ~ctx:(child p) ~parent:p.span ~proc:w.Shard.proc ~name
         ~ts_us:(now_us ()) ~dur_us:0. args)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Records from an Obs event stream                                    *)
(* ------------------------------------------------------------------ *)

(* One trace per sink: the root span stands for the whole observed run,
   and each closed span or instant becomes a record parented on the
   innermost span open when it began.  [Obs] matches ends against its
   own stack, so this stack always mirrors it; a stray end is ignored
   here as there. *)
let records ?(on_series = fun ~name:_ ~ts_us:_ _ -> ()) on_record =
  let root = genesis () in
  let base = now_us () in
  let abs ts = base +. (ts *. 1e6) in
  let stack = ref [] in
  let parent () =
    match !stack with (_, c, _, _) :: _ -> c.span | [] -> root.span
  in
  let emit = function
    | Sink.Span_begin { name; ts; args } ->
      stack := (name, child root, abs ts, args) :: !stack
    | Sink.Span_end { name; ts } -> (
      match !stack with
      | (top, ctx, ts_us, args) :: rest when top = name ->
        stack := rest;
        on_record
          (make ~ctx ~parent:(parent ()) ~name ~ts_us
             ~dur_us:(abs ts -. ts_us) args)
      | _ -> ())
    | Sink.Instant { name; ts; args } ->
      on_record
        (make ~ctx:(child root) ~parent:(parent ()) ~name ~ts_us:(abs ts)
           ~dur_us:0. args)
    | Sink.Series { name; ts; values } -> on_series ~name ~ts_us:(abs ts) values
  in
  let close () =
    on_record
      (make ~ctx:root ~name:program ~ts_us:base ~dur_us:(now_us () -. base) [])
  in
  { Sink.emit; flush = ignore; close }

(* ------------------------------------------------------------------ *)
(* The Chrome renderer                                                 *)
(* ------------------------------------------------------------------ *)

(* The JSON-array flavour of the trace_event format. *)
module Chrome = struct
  type writer = {
    write : string -> unit;
    procs : (string * int, int) Hashtbl.t;
    mutable first : bool;
  }

  let create write = { write; procs = Hashtbl.create 7; first = true }

  let event w ~name ~ph ~ts ~pid ?(tid = 1) rest args =
    w.write (if w.first then "[\n" else ",\n");
    w.first <- false;
    w.write
      (Jsonv.to_string
         (Jsonv.Obj
            ([ ("name", Jsonv.String name); ("ph", Jsonv.String ph); ("ts", ts) ]
            @ rest
            @ [ ("pid", Jsonv.Int pid); ("tid", Jsonv.Int tid); ("args", Jsonv.Obj args) ])))

  (* The small display pid of a (proc, OS pid) pair, announced by its
     metadata event the first time it is seen. *)
  let pid w proc ospid =
    match Hashtbl.find_opt w.procs (proc, ospid) with
    | Some v -> v
    | None ->
      let v = Hashtbl.length w.procs + 1 in
      Hashtbl.replace w.procs (proc, ospid) v;
      event w ~name:"process_name" ~ph:"M" ~ts:(Jsonv.Int 0) ~pid:v ~tid:0 []
        [ ("name", Jsonv.String (Printf.sprintf "%s/%d" proc ospid)) ];
      v

  let cat = ("cat", Jsonv.String "chase")

  let record w r =
    event w ~name:r.r_name ~ph:"X" ~ts:(us_json r.r_ts_us)
      ~pid:(pid w r.r_proc r.r_pid)
      [ cat; ("dur", Jsonv.Float r.r_dur_us) ]
      (ids r @ r.r_args)

  let sample w ~name ~ts_us values =
    event w ~name ~ph:"C" ~ts:(us_json ts_us)
      ~pid:(pid w program (Unix.getpid ()))
      [ cat ]
      (List.map (fun (k, x) -> (k, Jsonv.Float x)) values)

  (* an empty stream still closes to valid JSON *)
  let close w =
    if w.first then w.write "[";
    w.write "\n]\n"
end

let merge_to_chrome write records =
  let w = Chrome.create write in
  List.iter (Chrome.record w)
    (List.stable_sort
       (fun a b ->
         match String.compare a.r_trace b.r_trace with
         | 0 -> compare a.r_ts_us b.r_ts_us
         | c -> c)
       records);
  Chrome.close w

(** The flight recorder.  The ring is an array of immutable records
    behind an atomic cursor: concurrent writers may interleave slots,
    which is harmless — each slot flip is one pointer store, so readers
    always see whole records, if not always the globally newest ones.
    The dump sorts by timestamp. *)

let size = 1024
let ring : Tracectx.record option array = Array.make size None
let cursor = Atomic.make 0

(* The post-mortem path: set once at process start by whichever binary
   wants dumps; [None] keeps the ring empty and [dump] a no-op. *)
let dump_path : string option Atomic.t = Atomic.make None
let configure ~path = Atomic.set dump_path path
let configured () = Atomic.get dump_path

(* The process's own events hang under one root span, named by each
   dump's header record. *)
let root = Tracectx.genesis ()

let record r =
  if Atomic.get dump_path <> None then begin
    let i = Atomic.fetch_and_add cursor 1 in
    ring.(i mod size) <- Some r
  end

let instant ?(args = []) name =
  if Atomic.get dump_path <> None then
    record
      (Tracectx.make ~ctx:(Tracectx.child root) ~parent:root.Tracectx.span
         ~name ~ts_us:(Tracectx.now_us ()) ~dur_us:0. args)

let recorded () = Atomic.get cursor

let entries () =
  Array.to_list ring
  |> List.filter_map Fun.id
  |> List.sort (fun a b -> compare a.Tracectx.r_ts_us b.Tracectx.r_ts_us)

let reset () =
  Array.fill ring 0 size None;
  Atomic.set cursor 0

(** [dump ~reason] appends a post-mortem to the configured path: a
    header record named ["flight"] carrying the reason and the ring's
    counts, then every retained record oldest-first.  Multiple dumps
    coexist in one file.  Never raises: the writer drops what a sick
    disk refuses. *)
let dump ~reason =
  match Atomic.get dump_path with
  | None -> ()
  | Some path ->
    let es = entries () in
    let w = Tracectx.Shard.open_ ~proc:Tracectx.program path in
    Tracectx.Shard.write_record w
      (Tracectx.make ~ctx:root ~name:"flight" ~ts_us:(Tracectx.now_us ())
         ~dur_us:0.
         [
           ("reason", Jsonv.String reason);
           ("recorded", Jsonv.Int (recorded ()));
           ("retained", Jsonv.Int (List.length es));
         ]);
    List.iter (Tracectx.Shard.write_record w) es;
    Tracectx.Shard.close w

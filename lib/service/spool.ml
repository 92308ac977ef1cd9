(** The durable request spool: one directory holding, per idempotency
    key, the acknowledged request ([<key>.req]), the run's write-ahead
    journal ([<key>.jnl], plus the [.jnl.snap] the {!Chase_persist}
    machinery derives from it), and the finished response bytes
    ([<key>.resp]).

    The contract: once [put_request] returns, the request survives any
    kill — boot recovery ({!pending}) finds every [.req] without a
    [.resp], re-runs it against its journal and completes it.  Both
    [.req] and [.resp] are written write-temp / fsync / rename, so a
    kill can leave stale [.tmp] litter but never a torn visible file. *)

type t = { dir : string }

let create ~dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  { dir }

let dir t = t.dir
let req_path t ~key = Filename.concat t.dir (key ^ ".req")
let jnl_path t ~key = Filename.concat t.dir (key ^ ".jnl")
let resp_path t ~key = Filename.concat t.dir (key ^ ".resp")

(* Atomic durable write: temp file in the same directory, fsync, rename
   over the target, fsync the directory so the rename itself is
   durable — the shared {!Chase_persist.Fsutil} cycle. *)
let write_atomic path data = Chase_persist.Fsutil.write_atomic path data

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

let put_request t ~key data = write_atomic (req_path t ~key) data
let put_response t ~key data = write_atomic (resp_path t ~key) data
let get_request t ~key = read_file (req_path t ~key)
let get_response t ~key = read_file (resp_path t ~key)
let has_response t ~key = Sys.file_exists (resp_path t ~key)

(* Keys acknowledged but not answered — the boot-recovery work list.
   Stale [.tmp] litter from a kill mid-write is ignored (and a torn
   [.req.tmp] never became visible, so its request was never
   acknowledged). *)
let pending t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun n -> Filename.chop_suffix_opt ~suffix:".req" n)
    |> List.filter (fun key -> not (has_response t ~key))
    |> List.sort String.compare

let remove t ~key =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [
      req_path t ~key;
      jnl_path t ~key;
      jnl_path t ~key ^ ".snap";
      jnl_path t ~key ^ ".snap.tmp";
      resp_path t ~key;
    ]

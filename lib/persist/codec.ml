(** Binary encoding for the durability subsystem.

    Little-endian fixed-width frame fields, LEB128 varints for counters
    and stamps, length-prefixed strings for names, and a table-driven
    CRC-32 (IEEE 802.3) over record payloads.  Decoding never raises
    past the module boundary: every malformed input surfaces as
    {!Corrupt}, which the journal reader converts into a torn-tail
    truncation point. *)

open Chase_logic

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, as in zlib)                          *)
(* ------------------------------------------------------------------ *)

module Crc32 = struct
  (* eager: threads forcing one lazy at once raise [Lazy.Undefined] *)
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)

  (** CRC-32 of a substring; the conventional init/final xor is applied
      internally, so the digest of [""] is 0. *)
  let digest ?(pos = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - pos in
    let crc = ref 0xffffffff in
    for i = pos to pos + len - 1 do
      crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
    done;
    !crc lxor 0xffffffff
end

(* ------------------------------------------------------------------ *)
(* Primitive writers (Buffer) and readers (string + cursor)            *)
(* ------------------------------------------------------------------ *)

let put_u32 b n =
  for shift = 0 to 3 do
    Buffer.add_char b (Char.chr ((n lsr (8 * shift)) land 0xff))
  done

let put_varint b n =
  if n < 0 then invalid_arg "Codec.put_varint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

type reader = {
  data : string;
  mutable pos : int;
}

let reader ?(pos = 0) data = { data; pos }
let at_end r = r.pos >= String.length r.data

let byte r =
  if r.pos >= String.length r.data then corrupt "unexpected end of record";
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_u32 r =
  let b0 = byte r in
  let b1 = byte r in
  let b2 = byte r in
  let b3 = byte r in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let get_varint r =
  let rec go shift acc =
    if shift > 56 then corrupt "varint too wide";
    let b = byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_string r =
  let len = get_varint r in
  if len < 0 || r.pos + len > String.length r.data then
    corrupt "string overruns the record";
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* ------------------------------------------------------------------ *)
(* Terms, atoms, substitutions                                         *)
(* ------------------------------------------------------------------ *)

let put_term b = function
  | Term.Const c ->
    Buffer.add_char b '\000';
    put_string b c
  | Term.Var v ->
    Buffer.add_char b '\001';
    put_string b v
  | Term.Null n ->
    Buffer.add_char b '\002';
    put_varint b n

let get_term r =
  match byte r with
  | 0 -> Term.Const (get_string r)
  | 1 -> Term.Var (get_string r)
  | 2 -> Term.Null (get_varint r)
  | t -> corrupt "unknown term tag %d" t

let put_atom b a =
  put_string b (Atom.pred a);
  put_varint b (Atom.arity a);
  Array.iter (put_term b) (Atom.args a)

let get_atom r =
  let pred = get_string r in
  let arity = get_varint r in
  if arity > 4096 then corrupt "implausible arity %d" arity;
  Atom.of_list pred (List.init arity (fun _ -> get_term r))

let put_list put b xs =
  put_varint b (List.length xs);
  List.iter (put b) xs

let get_list get r =
  let n = get_varint r in
  if n > 0x1000000 then corrupt "implausible list length %d" n;
  List.init n (fun _ -> get r)

let put_bindings b sub =
  put_list
    (fun b (v, t) ->
      put_string b v;
      put_term b t)
    b (Subst.to_list sub)

let get_bindings r =
  Subst.of_list
    (get_list
       (fun r ->
         let v = get_string r in
         let t = get_term r in
         (v, t))
       r)

(* ------------------------------------------------------------------ *)
(* Journal step records                                                *)
(* ------------------------------------------------------------------ *)

(** One trigger application, as journaled: what a re-run of the chase
    must reproduce at this step. *)
type step_record = {
  step : int;  (** global step number, 1-based, contiguous *)
  rule_index : int;  (** index into the run's rule list *)
  rule_name : string;  (** redundant, for integrity checking *)
  hom : Subst.t;  (** the full body homomorphism of the trigger *)
  depth : int;  (** derivation depth of the created facts *)
  created_nulls : int list;  (** stamps, ascending, contiguous globally *)
  created_atoms : Atom.t list;  (** facts actually added (possibly none) *)
}

let record ~step ~rule_index ~depth ~created_nulls rule hom created_atoms =
  {
    step;
    rule_index;
    rule_name = Tgd.name rule;
    hom;
    depth;
    created_nulls;
    created_atoms;
  }

let encode_step sr =
  let b = Buffer.create 128 in
  put_varint b sr.step;
  put_varint b sr.rule_index;
  put_string b sr.rule_name;
  put_bindings b sr.hom;
  put_varint b sr.depth;
  put_list put_varint b sr.created_nulls;
  put_list put_atom b sr.created_atoms;
  Buffer.contents b

let decode_step payload =
  let r = reader payload in
  let step = get_varint r in
  let rule_index = get_varint r in
  let rule_name = get_string r in
  let hom = get_bindings r in
  let depth = get_varint r in
  let created_nulls = get_list get_varint r in
  let created_atoms = get_list get_atom r in
  if not (at_end r) then corrupt "trailing bytes in a step record";
  { step; rule_index; rule_name; hom; depth; created_nulls; created_atoms }

let pp_step fm sr =
  Fmt.pf fm "@[step %d: rule#%d%s via %a (+%d facts, %d nulls, depth %d)@]"
    sr.step sr.rule_index
    (if sr.rule_name = "" then "" else " " ^ sr.rule_name)
    Subst.pp sr.hom
    (List.length sr.created_atoms)
    (List.length sr.created_nulls)
    sr.depth

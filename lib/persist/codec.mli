(** Binary encoding for the durability subsystem: CRC-32, varints,
    length-prefixed strings, terms/atoms/substitutions, and the journal's
    step records.  Decoding failures raise {!Corrupt}; the journal reader
    converts them into torn-tail truncation points rather than failures. *)

open Chase_logic

exception Corrupt of string

val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Format and raise {!Corrupt}. *)

module Crc32 : sig
  val digest : ?pos:int -> ?len:int -> string -> int
  (** CRC-32 (IEEE 802.3) of a substring; the digest of [""] is 0. *)
end

(** {1 Primitive writers and readers} *)

val put_u32 : Buffer.t -> int -> unit
(** Little-endian, low 32 bits. *)

val put_varint : Buffer.t -> int -> unit
(** LEB128; @raise Invalid_argument on a negative value. *)

val put_string : Buffer.t -> string -> unit

type reader

val reader : ?pos:int -> string -> reader
val at_end : reader -> bool
val get_u32 : reader -> int
val get_varint : reader -> int
val get_string : reader -> string

val put_term : Buffer.t -> Term.t -> unit
val get_term : reader -> Term.t
val put_atom : Buffer.t -> Atom.t -> unit
val get_atom : reader -> Atom.t
val put_bindings : Buffer.t -> Subst.t -> unit
val get_bindings : reader -> Subst.t

(** {1 Journal step records} *)

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

val record :
  step:int ->
  rule_index:int ->
  depth:int ->
  created_nulls:int list ->
  Tgd.t ->
  Subst.t ->
  Atom.t list ->
  step_record
(** The record of one application, from the arguments of the engine's
    [on_trigger] hook. *)

val encode_step : step_record -> string
val decode_step : string -> step_record
(** @raise Corrupt on any malformed payload. *)

val pp_step : Format.formatter -> step_record -> unit

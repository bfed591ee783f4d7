(** Pretty-printer / disassembler for guest instructions. *)

val pp : Isa.t Fmt.t
val to_string : Isa.t -> string

val buffer : Bytes.t -> (int * Isa.t) list
(** Disassemble a flat code buffer into (offset, instruction) pairs;
    stops at the first undecodable byte. *)

(** Instruction decoder: the inverse of {!Encode}, which states the format.

    Decoding reads from an abstract byte source so that both the CPU (which
    fetches through the MMU) and the disassembler (which reads flat
    buffers) can share it. *)

exception Invalid_opcode of int
(** An undefined opcode byte or out-of-range register byte (the payload),
    or [-1] when a flat buffer ends mid-instruction. *)

val decode : (int -> int) -> Isa.t * int
(** [decode fetch] decodes one instruction where [fetch off] returns the
    byte at offset [off]; returns the instruction and its encoded length.
    Raises {!Invalid_opcode} (and lets [fetch]'s exceptions, e.g. page
    faults, propagate). *)

val of_bytes : Bytes.t -> int -> Isa.t * int
(** Decode from a flat buffer at an offset. *)

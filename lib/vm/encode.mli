(** Binary encoding of instructions, and its inverse.

    Instructions must live as bytes in guest memory: FAROS's flagging rule
    inspects the provenance of the {e code bytes} of the executing
    instruction, so injected payloads travel through the system as data and
    only become code when fetched.

    Layout: one opcode byte, then operands in order.  Registers are one
    byte; immediates and branch targets are 4-byte little-endian words;
    effective addresses are a mode byte, base byte, index byte and a 4-byte
    displacement.

    The format is stated once: {!fold} walks an instruction's opcode byte,
    mnemonic and operands in encoding order, and {!read} is its inverse.
    Every register byte is range-checked by both. *)

exception Invalid_opcode of int
(** An undefined opcode byte, or a register byte naming no register; the
    payload is the offending byte. *)

type 'a folder = {
  opcode : 'a -> int -> string -> 'a;  (** opcode byte and mnemonic *)
  reg : 'a -> Isa.reg -> 'a;
  imm : 'a -> int -> 'a;  (** a 4-byte immediate or branch target *)
  addr : 'a -> Isa.addr -> 'a;
}

val fold : 'a folder -> 'a -> Isa.t -> 'a
(** [fold f acc i] calls [f.opcode] once, then one callback per operand
    in encoding order.  Raises [Invalid_argument] on a load or store width
    other than 1, 2 or 4. *)

val read : (int -> int) -> Isa.t * int
(** [read fetch] decodes one instruction, where [fetch off] returns the
    byte at offset [off]; returns the instruction and its encoded length.
    Raises {!Invalid_opcode} and lets [fetch]'s exceptions propagate. *)

val put_u32 : Buffer.t -> int -> unit
(** Append a 4-byte little-endian word (also used by the assembler's data
    directives). *)

val emit : Buffer.t -> Isa.t -> unit
(** Append one encoded instruction.  Raises [Invalid_argument] on bad
    registers, widths or scales. *)

val to_bytes : Isa.t -> Bytes.t

val length : Isa.t -> int
(** Encoded length without emitting — the assembler's first pass. *)

val opcode : Isa.t -> int
(** The opcode byte — what guest JIT compilers in the corpus store to emit
    code at runtime. *)

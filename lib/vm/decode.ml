(* Instruction decoder: the inverse of {!Encode}, which states the format.

   Decoding reads from an abstract byte source so that both the CPU (which
   fetches through the MMU) and the disassembler (which reads flat buffers)
   can share it. *)

exception Invalid_opcode = Encode.Invalid_opcode

let decode = Encode.read

let of_bytes b off =
  decode (fun i ->
      if off + i >= Bytes.length b then raise (Invalid_opcode (-1))
      else Char.code (Bytes.get b (off + i)))

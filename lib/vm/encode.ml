(* Binary encoding of instructions, and its inverse.

   Instructions must live as bytes in guest memory: FAROS's flagging rule
   inspects the provenance of the *code bytes* of the executing instruction,
   so injected payloads have to travel through the system as data and only
   become code when fetched.

   Layout: one opcode byte, then operands in order.  Registers are one byte.
   Immediates and branch targets are 4-byte little-endian words.  Effective
   addresses are a mode byte (bit0: base present, bit1: index present,
   bits2-3: log2 scale) followed by base byte, index byte and a 4-byte
   displacement.

   The opcode bytes and operand order are stated here and nowhere else:
   [fold] walks an instruction's opcode byte, mnemonic and operands in
   encoding order, and [read], beside it, is its inverse, a match on the
   opcode byte.  The
   writer, [length], the disassembler and the TB cache's register census
   are folds; the decoder is [read]. *)

exception Invalid_opcode of int

type 'a folder = {
  opcode : 'a -> int -> string -> 'a;
  reg : 'a -> Isa.reg -> 'a;
  imm : 'a -> int -> 'a;
  addr : 'a -> Isa.addr -> 'a;
}

(* Operand shapes.  Top-level, so a fold allocates nothing of its own. *)
let r f acc o m a = f.reg (f.opcode acc o m) a
let rr f acc o m a b = f.reg (r f acc o m a) b
let ri f acc o m a v = f.imm (r f acc o m a) v
let ra f acc o m a addr = f.addr (r f acc o m a) addr
let ar f acc o m addr a = f.reg (f.addr (f.opcode acc o m) addr) a
let i f acc o m v = f.imm (f.opcode acc o m) v

let fold f acc (instr : Isa.t) =
  match instr with
  | Nop -> f.opcode acc 0x00 "nop"
  | Halt -> f.opcode acc 0x01 "halt"
  | Mov_ri (a, v) -> ri f acc 0x02 "mov" a v
  | Mov_rr (a, b) -> rr f acc 0x03 "mov" a b
  | Load (1, a, addr) -> ra f acc 0x04 "load1" a addr
  | Load (2, a, addr) -> ra f acc 0x05 "load2" a addr
  | Load (4, a, addr) -> ra f acc 0x06 "load4" a addr
  | Load _ -> invalid_arg "Encode: load width"
  | Store (1, addr, a) -> ar f acc 0x07 "store1" addr a
  | Store (2, addr, a) -> ar f acc 0x08 "store2" addr a
  | Store (4, addr, a) -> ar f acc 0x09 "store4" addr a
  | Store _ -> invalid_arg "Encode: store width"
  | Lea (a, addr) -> ra f acc 0x0A "lea" a addr
  | Push a -> r f acc 0x0B "push" a
  | Pop a -> r f acc 0x0C "pop" a
  | Add_rr (a, b) -> rr f acc 0x10 "add" a b
  | Add_ri (a, v) -> ri f acc 0x11 "add" a v
  | Sub_rr (a, b) -> rr f acc 0x12 "sub" a b
  | Sub_ri (a, v) -> ri f acc 0x13 "sub" a v
  | Mul_rr (a, b) -> rr f acc 0x14 "mul" a b
  | And_rr (a, b) -> rr f acc 0x15 "and" a b
  | And_ri (a, v) -> ri f acc 0x16 "and" a v
  | Or_rr (a, b) -> rr f acc 0x17 "or" a b
  | Or_ri (a, v) -> ri f acc 0x18 "or" a v
  | Xor_rr (a, b) -> rr f acc 0x19 "xor" a b
  | Xor_ri (a, v) -> ri f acc 0x1A "xor" a v
  | Shl_ri (a, v) -> ri f acc 0x1B "shl" a v
  | Shr_ri (a, v) -> ri f acc 0x1C "shr" a v
  | Not_r a -> r f acc 0x1D "not" a
  | Shl_rr (a, b) -> rr f acc 0x1E "shl" a b
  | Shr_rr (a, b) -> rr f acc 0x1F "shr" a b
  | Cmp_rr (a, b) -> rr f acc 0x20 "cmp" a b
  | Cmp_ri (a, v) -> ri f acc 0x21 "cmp" a v
  | Test_rr (a, b) -> rr f acc 0x22 "test" a b
  | Jmp t -> i f acc 0x30 "jmp" t
  | Jz t -> i f acc 0x31 "jz" t
  | Jnz t -> i f acc 0x32 "jnz" t
  | Jl t -> i f acc 0x33 "jl" t
  | Jge t -> i f acc 0x34 "jge" t
  | Jg t -> i f acc 0x35 "jg" t
  | Jle t -> i f acc 0x36 "jle" t
  | Call t -> i f acc 0x40 "call" t
  | Call_r a -> r f acc 0x41 "call" a
  | Jmp_r a -> r f acc 0x42 "jmp" a
  | Ret -> f.opcode acc 0x43 "ret"
  | Syscall -> f.opcode acc 0x50 "syscall"
  | Int3 -> f.opcode acc 0x51 "int3"

(* -- reading ------------------------------------------------------------- *)

type cursor = { fetch : int -> int; mutable pos : int }
(* [fetch off] returns the byte at offset [off]; [pos] advances as we read. *)

let u8 c =
  let v = c.fetch c.pos in
  c.pos <- c.pos + 1;
  v

let u32 c =
  let b0 = u8 c in
  let b1 = u8 c in
  let b2 = u8 c in
  let b3 = u8 c in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

(* Every register byte read passes through here. *)
let check_reg b = if b >= Isa.num_regs then raise (Invalid_opcode b) else b
let reg c = check_reg (u8 c)

(* A base or index byte counts only when the mode byte says it is present. *)
let opt_reg c present =
  let b = u8 c in
  if present then Some (check_reg b) else None

let addr c : Isa.addr =
  let mode = u8 c in
  let base = opt_reg c (mode land 1 <> 0) in
  let index = opt_reg c (mode land 2 <> 0) in
  let disp = u32 c in
  { base; index; scale = 1 lsl ((mode lsr 2) land 0x3); disp }

(* Two operands in encoding order.  The constructors passed in are closed
   functions, so these allocate only the instruction. *)
let read_rr c k =
  let a = reg c in
  k a (reg c)

let read_ri c k =
  let a = reg c in
  k a (u32 c)

let read_ra c k =
  let a = reg c in
  k a (addr c)

let read_ar c k =
  let a = addr c in
  k a (reg c)

let read_instr c : Isa.t =
  let open Isa in
  match u8 c with
  | 0x00 -> Nop
  | 0x01 -> Halt
  | 0x02 -> read_ri c (fun a v -> Mov_ri (a, v))
  | 0x03 -> read_rr c (fun a b -> Mov_rr (a, b))
  | 0x04 -> read_ra c (fun a addr -> Load (1, a, addr))
  | 0x05 -> read_ra c (fun a addr -> Load (2, a, addr))
  | 0x06 -> read_ra c (fun a addr -> Load (4, a, addr))
  | 0x07 -> read_ar c (fun addr a -> Store (1, addr, a))
  | 0x08 -> read_ar c (fun addr a -> Store (2, addr, a))
  | 0x09 -> read_ar c (fun addr a -> Store (4, addr, a))
  | 0x0A -> read_ra c (fun a addr -> Lea (a, addr))
  | 0x0B -> Push (reg c)
  | 0x0C -> Pop (reg c)
  | 0x10 -> read_rr c (fun a b -> Add_rr (a, b))
  | 0x11 -> read_ri c (fun a v -> Add_ri (a, v))
  | 0x12 -> read_rr c (fun a b -> Sub_rr (a, b))
  | 0x13 -> read_ri c (fun a v -> Sub_ri (a, v))
  | 0x14 -> read_rr c (fun a b -> Mul_rr (a, b))
  | 0x15 -> read_rr c (fun a b -> And_rr (a, b))
  | 0x16 -> read_ri c (fun a v -> And_ri (a, v))
  | 0x17 -> read_rr c (fun a b -> Or_rr (a, b))
  | 0x18 -> read_ri c (fun a v -> Or_ri (a, v))
  | 0x19 -> read_rr c (fun a b -> Xor_rr (a, b))
  | 0x1A -> read_ri c (fun a v -> Xor_ri (a, v))
  | 0x1B -> read_ri c (fun a v -> Shl_ri (a, v))
  | 0x1C -> read_ri c (fun a v -> Shr_ri (a, v))
  | 0x1D -> Not_r (reg c)
  | 0x1E -> read_rr c (fun a b -> Shl_rr (a, b))
  | 0x1F -> read_rr c (fun a b -> Shr_rr (a, b))
  | 0x20 -> read_rr c (fun a b -> Cmp_rr (a, b))
  | 0x21 -> read_ri c (fun a v -> Cmp_ri (a, v))
  | 0x22 -> read_rr c (fun a b -> Test_rr (a, b))
  | 0x30 -> Jmp (u32 c)
  | 0x31 -> Jz (u32 c)
  | 0x32 -> Jnz (u32 c)
  | 0x33 -> Jl (u32 c)
  | 0x34 -> Jge (u32 c)
  | 0x35 -> Jg (u32 c)
  | 0x36 -> Jle (u32 c)
  | 0x40 -> Call (u32 c)
  | 0x41 -> Call_r (reg c)
  | 0x42 -> Jmp_r (reg c)
  | 0x43 -> Ret
  | 0x50 -> Syscall
  | 0x51 -> Int3
  | o -> raise (Invalid_opcode o)

let read fetch =
  let c = { fetch; pos = 0 } in
  let instr = read_instr c in
  (instr, c.pos)

(* -- folds --------------------------------------------------------------- *)

let log2_scale = function
  | 1 -> 0
  | 2 -> 1
  | 4 -> 2
  | s -> invalid_arg (Printf.sprintf "Encode: scale %d" s)

let addr_mode (a : Isa.addr) =
  let m = log2_scale a.scale lsl 2 in
  let m = if a.base <> None then m lor 1 else m in
  if a.index <> None then m lor 2 else m

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

(* Every register byte written passes through here. *)
let put_reg buf r =
  if r < 0 || r >= Isa.num_regs then
    invalid_arg (Printf.sprintf "Encode: register %d" r);
  Buffer.add_char buf (Char.chr r)

let put_addr buf (a : Isa.addr) =
  Buffer.add_char buf (Char.chr (addr_mode a));
  put_reg buf (Option.value a.base ~default:0);
  put_reg buf (Option.value a.index ~default:0);
  put_u32 buf (Word.of_int a.disp)

let writer =
  let chain put buf x =
    put buf x;
    buf
  in
  {
    opcode = (fun buf o _ -> chain Buffer.add_char buf (Char.chr o));
    reg = chain put_reg;
    imm = (fun buf v -> chain put_u32 buf (Word.of_int v));
    addr = chain put_addr;
  }

let emit buf instr = ignore (fold writer buf instr)

let to_bytes instr =
  let buf = Buffer.create 16 in
  emit buf instr;
  Buffer.to_bytes buf

let sizes =
  {
    opcode = (fun n _ _ -> n + 1);
    reg = (fun n _ -> n + 1);
    imm = (fun n _ -> n + 4);
    addr = (fun n _ -> n + 7);
  }

let length instr = fold sizes 0 instr

let opcode_byte =
  {
    opcode = (fun _ o _ -> o);
    reg = (fun o _ -> o);
    imm = (fun o _ -> o);
    addr = (fun o _ -> o);
  }

let opcode instr = fold opcode_byte 0 instr

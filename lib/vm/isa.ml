(* Instruction set of the guest machine.

   A small 32-bit register machine, rich enough to express the workloads
   FAROS cares about: byte-granular loads and stores, scaled-index-base
   addressing (needed for the address-dependency experiments of Fig. 1 and
   the Minos ablation), conditional branches (control dependencies, Fig. 2),
   calls through registers (how injected payloads invoke resolved kernel
   functions) and a SYSCALL trap into the miniature NT kernel. *)

type reg = int
(* 0..7 are general purpose (r0..r7); 8 is sp; 9 is bp. *)

let num_regs = 10
let r0 = 0
let r1 = 1
let r2 = 2
let r3 = 3
let r4 = 4
let r5 = 5
let r6 = 6
let r7 = 7
let sp = 8
let bp = 9

let reg_name = function
  | 8 -> "sp"
  | 9 -> "bp"
  | r when r >= 0 && r < 8 -> Printf.sprintf "r%d" r
  | r -> Printf.sprintf "bad%d" r

(* Effective address: base + index*scale + disp.  Scale is 1, 2 or 4. *)
type addr = { base : reg option; index : reg option; scale : int; disp : int }

let abs disp = { base = None; index = None; scale = 1; disp }
let based ?(disp = 0) base = { base = Some base; index = None; scale = 1; disp }

let indexed ?(disp = 0) ?base ~scale index =
  { base; index = Some index; scale; disp }

type width = int
(* 1, 2 or 4 bytes. *)

type t =
  | Nop
  | Halt
  | Mov_ri of reg * int
  | Mov_rr of reg * reg
  | Load of width * reg * addr
  | Store of width * addr * reg
  | Lea of reg * addr
  | Push of reg
  | Pop of reg
  | Add_rr of reg * reg
  | Add_ri of reg * int
  | Sub_rr of reg * reg
  | Sub_ri of reg * int
  | Mul_rr of reg * reg
  | And_rr of reg * reg
  | And_ri of reg * int
  | Or_rr of reg * reg
  | Or_ri of reg * int
  | Xor_rr of reg * reg
  | Xor_ri of reg * int
  | Shl_ri of reg * int
  | Shr_ri of reg * int
  | Shl_rr of reg * reg
  | Shr_rr of reg * reg
  | Not_r of reg
  | Cmp_rr of reg * reg
  | Cmp_ri of reg * int
  | Test_rr of reg * reg
  | Jmp of int
  | Jz of int
  | Jnz of int
  | Jl of int
  | Jge of int
  | Jg of int
  | Jle of int
  | Call of int
  | Call_r of reg
  | Jmp_r of reg
  | Ret
  | Syscall
  | Int3

let is_branch = function
  | Jmp _ | Jz _ | Jnz _ | Jl _ | Jge _ | Jg _ | Jle _ | Call _ | Call_r _
  | Jmp_r _ | Ret ->
    true
  | Nop | Halt | Mov_ri _ | Mov_rr _ | Load _ | Store _ | Lea _ | Push _
  | Pop _ | Add_rr _ | Add_ri _ | Sub_rr _ | Sub_ri _ | Mul_rr _ | And_rr _
  | And_ri _ | Or_rr _ | Or_ri _ | Xor_rr _ | Xor_ri _ | Shl_ri _ | Shr_ri _
  | Shl_rr _ | Shr_rr _ | Not_r _ | Cmp_rr _ | Cmp_ri _ | Test_rr _ | Syscall
  | Int3 ->
    false

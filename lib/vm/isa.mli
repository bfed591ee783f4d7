(** Instruction set of the guest machine.

    A small 32-bit register machine, rich enough to express the workloads
    FAROS cares about: byte-granular loads and stores, scaled-index-base
    addressing (needed for the address-dependency experiments of Fig. 1 and
    the Minos ablation), conditional branches (control dependencies,
    Fig. 2), calls through registers (how injected payloads invoke resolved
    kernel functions) and a SYSCALL trap into the miniature NT kernel. *)

type reg = int
(** 0..7 are general purpose (r0..r7); 8 is sp; 9 is bp. *)

val num_regs : int

val r0 : reg
val r1 : reg
val r2 : reg
val r3 : reg
val r4 : reg
val r5 : reg
val r6 : reg
val r7 : reg
val sp : reg
val bp : reg

val reg_name : reg -> string

(** Effective address: [base + index*scale + disp].  Scale is 1, 2 or 4. *)
type addr = { base : reg option; index : reg option; scale : int; disp : int }

val abs : int -> addr
(** Absolute address (displacement only). *)

val based : ?disp:int -> reg -> addr
(** Base register plus displacement. *)

val indexed : ?disp:int -> ?base:reg -> scale:int -> reg -> addr
(** Scaled-index(-base) address. *)

type width = int
(** Access width in bytes: 1, 2 or 4. *)

type t =
  | Nop
  | Halt  (** terminate the process; r1 carries the exit code *)
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
  | Syscall  (** trap to the kernel: number in r0, args in r1..r5 *)
  | Int3

val is_branch : t -> bool

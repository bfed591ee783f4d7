(* Translation-block cache.

   Straight-line instruction runs are decoded once into an immutable array
   of pre-decoded entries — instruction, length, and the pre-resolved
   physical address of every code byte — keyed by (asid, pc).  Subsequent
   visits execute from the cache with no byte fetches and no Decode call,
   the same economy QEMU's TCG gets from never re-translating a hot block.

   Correctness hinges on invalidation, because injected shellcode is
   written and then executed — the exact case FAROS exists to catch:

   - every frame a block's code bytes live in is marked in the MMU
     ({!Mmu.mark_code_page}), so any store into it reaches
     {!invalidate_range}, which kills the blocks whose code bytes the
     store overwrote.  Each block records one span per frame, from its
     lowest to one past its highest code byte there, so a store beside
     the code — a syscall buffer on the same page, say — keeps the
     block.  This is QEMU's per-page code bitmap at span granularity;
   - any mapping change in an address space (map / map_frames / unmap)
     reaches {!invalidate_asid} and kills all its blocks, since
     translations baked into entries may now be stale;
   - process exit retires the asid's blocks the same way.

   Invalidated blocks flip [b_valid] so a machine cursor still holding one
   drops it before executing another entry.  A frame's mark clears when
   its last block retires. *)

type entry = {
  en_pc : int;
  en_instr : Isa.t;
  en_len : int;
  en_code_paddrs : int array;
}

(* Per-block taint summary, compiled once at decode time.  It
   over-approximates what the DIFT engine could read or write while
   propagating over the block: every register an instruction names
   (operands and effective-address components, reads and writes alike —
   a write matters too, because propagation may *clear* a tainted
   destination), whether any instruction touches guest memory, and
   whether any instruction reads or writes the flags.  The fast path
   checks these against the shadow to decide whether propagation over
   the block can be a no-op; see docs/dift-engine.md for the contract. *)
type summary = {
  su_regs : int;  (* bitmask over Isa.num_regs of registers named *)
  su_mem : bool;  (* loads, stores, push/pop or call frames *)
  su_flags : bool;  (* compares (flag writes) or conditional jumps (reads) *)
}

(* A block's code bytes on one frame, as physical addresses
   [sp_lo, sp_hi).  The block is virtually contiguous, so its bytes on a
   frame are one run, and an instruction straddling a page puts the block
   on two frames. *)
type span = { sp_lo : int; sp_hi : int }

type block = {
  b_id : int;  (* serial from the cache, never reused *)
  b_key : int;
  b_asid : int;
  b_entries : entry array;
  b_spans : span array;  (* one per frame holding this block's code bytes *)
  b_summary : summary;
  mutable b_valid : bool;
}

type t = {
  mmu : Mmu.t;
  blocks : (int, block) Hashtbl.t;  (* key -> block *)
  by_pfn : (int, block list ref) Hashtbl.t;  (* frame -> live blocks with code there *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable summarized : int;  (* blocks ever compiled: the next block's [b_id] *)
}

type stats = {
  st_hits : int;
  st_misses : int;
  st_invalidations : int;
  st_blocks : int;
  st_summarized : int;
}

(* Blocks are bounded so an invalidation never throws away more than a
   basic block's worth of decode work. *)
let max_entries = 32

let key ~asid ~pc = (asid lsl 32) lor pc

let create mmu =
  {
    mmu;
    blocks = Hashtbl.create 256;
    by_pfn = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    invalidations = 0;
    summarized = 0;
  }

let stats t =
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_invalidations = t.invalidations;
    st_blocks = Hashtbl.length t.blocks;
    st_summarized = t.summarized;
  }

(* -- registration / retirement ------------------------------------------- *)

let span_pfn s = s.sp_lo lsr Mmu.page_shift

(* A frame stays marked while a live block has code on it. *)
let retire_block t b =
  if b.b_valid then begin
    b.b_valid <- false;
    t.invalidations <- t.invalidations + 1;
    Hashtbl.remove t.blocks b.b_key;
    Array.iter
      (fun s ->
        let pfn = span_pfn s in
        match Hashtbl.find_opt t.by_pfn pfn with
        | Some l -> (
          match List.filter (fun b' -> b' != b) !l with
          | [] ->
            Hashtbl.remove t.by_pfn pfn;
            Mmu.clear_code_page t.mmu pfn
          | rest -> l := rest)
        | None -> ())
      b.b_spans
  end

let register t b =
  Hashtbl.replace t.blocks b.b_key b;
  Array.iter
    (fun s ->
      let pfn = span_pfn s in
      match Hashtbl.find_opt t.by_pfn pfn with
      | Some l -> l := b :: !l
      | None ->
        Hashtbl.replace t.by_pfn pfn (ref [ b ]);
        Mmu.mark_code_page t.mmu pfn)
    b.b_spans

(* -- invalidation -------------------------------------------------------- *)

(* The MMU reports ranges within one frame, so only the blocks listed on
   that frame can overlap one. *)
let invalidate_range t paddr len =
  match Hashtbl.find_opt t.by_pfn (paddr lsr Mmu.page_shift) with
  | Some l ->
    let overwritten b =
      Array.exists (fun s -> s.sp_lo < paddr + len && paddr < s.sp_hi) b.b_spans
    in
    List.iter (retire_block t) (List.filter overwritten !l)
  | None -> ()

let invalidate_asid t asid =
  let victims =
    Hashtbl.fold (fun _ b acc -> if b.b_asid = asid then b :: acc else acc) t.blocks []
  in
  List.iter (retire_block t) victims

(* -- taint summaries ------------------------------------------------------ *)

(* What one instruction exposes to the propagation engine.  Registers are
   the census of the encoding: every register operand and effective-address
   component, since the engine may read them (sources, address
   dependencies) or overwrite their shadow (destinations, including
   clears).  The summary deliberately over-approximates: a register the
   engine happens to ignore (e.g. [Not_r]'s operand) only costs a spurious
   slow-path run, never a missed propagation. *)
let named_regs =
  let reg m r = m lor (1 lsl r) in
  let opt m = function Some r -> reg m r | None -> m in
  {
    Encode.opcode = (fun m _ _ -> m);
    reg;
    imm = (fun m _ -> m);
    addr = (fun m (a : Isa.addr) -> opt (opt m a.base) a.index);
  }

(* Whether the engine's rule for an instruction touches guest memory
   (loads, stores, push/pop, the cleared return slot of a call), and
   whether it writes the flags (compares) or reads them (conditional
   jumps). *)
let mem_and_flags (i : Isa.t) =
  match i with
  | Load _ | Store _ | Push _ | Pop _ | Call _ | Call_r _ -> (true, false)
  | Cmp_rr _ | Cmp_ri _ | Test_rr _ | Jz _ | Jnz _ | Jl _ | Jge _ | Jg _ | Jle _ ->
    (false, true)
  | Nop | Halt | Mov_ri _ | Mov_rr _ | Lea _ | Add_rr _ | Add_ri _ | Sub_rr _
  | Sub_ri _ | Mul_rr _ | And_rr _ | And_ri _ | Or_rr _ | Or_ri _ | Xor_rr _
  | Xor_ri _ | Shl_ri _ | Shr_ri _ | Shl_rr _ | Shr_rr _ | Not_r _ | Jmp _
  | Jmp_r _ | Ret | Syscall | Int3 ->
    (false, false)

let summarize entries =
  let regs = ref 0 and mem = ref false and flags = ref false in
  for k = 0 to Array.length entries - 1 do
    let i = entries.(k).en_instr in
    let m, f = mem_and_flags i in
    regs := Encode.fold named_regs !regs i;
    mem := !mem || m;
    flags := !flags || f
  done;
  { su_regs = !regs; su_mem = !mem; su_flags = !flags }

(* -- translation --------------------------------------------------------- *)

(* One span per frame: the lowest and one past the highest code paddr the
   block has there.  A frame mapped at two of the block's pages gets the
   span covering both runs, which can only retire the block more often. *)
let code_spans entries =
  let spans = ref [] in
  let add pa =
    let rec go = function
      | [] -> [ { sp_lo = pa; sp_hi = pa + 1 } ]
      | s :: rest when span_pfn s = pa lsr Mmu.page_shift ->
        { sp_lo = min s.sp_lo pa; sp_hi = max s.sp_hi (pa + 1) } :: rest
      | s :: rest -> s :: go rest
    in
    spans := go !spans
  in
  Array.iter (fun e -> Array.iter add e.en_code_paddrs) entries;
  Array.of_list !spans

(* Decode a straight-line run starting at (asid, pc).  A decode failure or
   page fault mid-run truncates the block so the fault is rediscovered by
   the uncached path at the exact pc; failure on the very first
   instruction yields [None] and the caller falls back to {!Cpu.step},
   keeping fault behavior byte-identical. *)
let translate t ~asid ~pc =
  let mmu = t.mmu in
  let entries = ref [] in
  let count = ref 0 in
  let cur = ref pc in
  let stop = ref false in
  while (not !stop) && !count < max_entries do
    let start = !cur in
    match
      let fetch off = Mmu.read_u8 mmu ~asid (start + off) in
      Decode.decode fetch
    with
    | exception (Mmu.Page_fault _ | Decode.Invalid_opcode _) -> stop := true
    | instr, len ->
      let code_paddrs = Array.init len (fun i -> Mmu.translate mmu ~asid (start + i)) in
      entries := { en_pc = start; en_instr = instr; en_len = len; en_code_paddrs = code_paddrs } :: !entries;
      incr count;
      cur := Word.of_int (start + len);
      (* End the block at anything that redirects control: the next pc is
         only known at execution time.  Halt and Int3 stop execution
         outright; Syscall stays in-block because the handler that may
         move pc runs between machine steps and the cursor re-checks pc. *)
      (match instr with
      | Halt | Int3 -> stop := true
      | i -> if Isa.is_branch i then stop := true)
  done;
  match !entries with
  | [] -> None
  | es ->
    let b_entries = Array.of_list (List.rev es) in
    let b =
      {
        b_id = t.summarized;
        b_key = key ~asid ~pc;
        b_asid = asid;
        b_entries;
        b_spans = code_spans b_entries;
        b_summary = summarize b_entries;
        b_valid = true;
      }
    in
    t.summarized <- t.summarized + 1;
    register t b;
    Some b

let lookup t ~asid ~pc = Hashtbl.find_opt t.blocks (key ~asid ~pc)

let record_hit t = t.hits <- t.hits + 1
let record_miss t = t.misses <- t.misses + 1

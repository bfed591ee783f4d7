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
     {!invalidate_paddr} and kills the blocks on that frame;
   - any mapping change in an address space (map / map_frames / unmap /
     destroy_space) reaches {!invalidate_asid} and kills all its blocks,
     since translations baked into entries may now be stale;
   - process exit retires the asid's blocks the same way.

   Invalidated blocks flip [b_valid] so a machine cursor still holding one
   drops it before executing another entry. *)

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

type block = {
  b_key : int;
  b_asid : int;
  b_entries : entry array;
  b_pfns : int array;  (* distinct frames holding this block's code bytes *)
  b_summary : summary;
  mutable b_valid : bool;
}

type t = {
  mmu : Mmu.t;
  blocks : (int, block) Hashtbl.t;  (* key -> block *)
  by_pfn : (int, block list ref) Hashtbl.t;
  page_refs : (int, int ref) Hashtbl.t;  (* pfn -> live block count *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable summarized : int;  (* blocks whose summary was ever compiled *)
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
    page_refs = Hashtbl.create 64;
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

let ref_page t pfn =
  match Hashtbl.find_opt t.page_refs pfn with
  | Some r -> incr r
  | None ->
    Hashtbl.replace t.page_refs pfn (ref 1);
    Mmu.mark_code_page t.mmu pfn

let unref_page t pfn =
  match Hashtbl.find_opt t.page_refs pfn with
  | Some r ->
    decr r;
    if !r <= 0 then begin
      Hashtbl.remove t.page_refs pfn;
      Mmu.clear_code_page t.mmu pfn
    end
  | None -> ()

let retire_block t b =
  if b.b_valid then begin
    b.b_valid <- false;
    t.invalidations <- t.invalidations + 1;
    Hashtbl.remove t.blocks b.b_key;
    Array.iter
      (fun pfn ->
        (match Hashtbl.find_opt t.by_pfn pfn with
        | Some l -> l := List.filter (fun b' -> b' != b) !l
        | None -> ());
        unref_page t pfn)
      b.b_pfns
  end

let register t b =
  Hashtbl.replace t.blocks b.b_key b;
  Array.iter
    (fun pfn ->
      ref_page t pfn;
      match Hashtbl.find_opt t.by_pfn pfn with
      | Some l -> l := b :: !l
      | None -> Hashtbl.replace t.by_pfn pfn (ref [ b ]))
    b.b_pfns

(* -- invalidation -------------------------------------------------------- *)

let invalidate_paddr t paddr =
  let pfn = paddr lsr Mmu.page_shift in
  match Hashtbl.find_opt t.by_pfn pfn with
  | Some l ->
    let bs = !l in
    l := [];
    List.iter (retire_block t) bs
  | None -> ()

let invalidate_asid t asid =
  let victims =
    Hashtbl.fold (fun _ b acc -> if b.b_asid = asid then b :: acc else acc) t.blocks []
  in
  List.iter (retire_block t) victims

(* -- taint summaries ------------------------------------------------------ *)

let reg_bit r = 1 lsl r

let addr_regs (a : Isa.addr) =
  (match a.base with Some r -> reg_bit r | None -> 0)
  lor match a.index with Some r -> reg_bit r | None -> 0

(* What one instruction exposes to the propagation engine.  Registers are
   collected for every operand position — the engine may read them
   (sources, address dependencies) or overwrite their shadow (destinations,
   including clears) — so the summary deliberately over-approximates: a
   register the engine happens to ignore (e.g. [Not_r]'s operand) only
   costs a spurious slow-path run, never a missed propagation. *)
let summarize_instr (i : Isa.t) =
  match i with
  | Isa.Nop | Halt | Syscall | Int3 | Jmp _ | Ret -> (0, false, false)
  | Mov_ri (r, _) | Add_ri (r, _) | Sub_ri (r, _) | And_ri (r, _)
  | Or_ri (r, _) | Xor_ri (r, _) | Shl_ri (r, _) | Shr_ri (r, _) | Not_r r ->
    (reg_bit r, false, false)
  | Mov_rr (a, b) | Add_rr (a, b) | Sub_rr (a, b) | Mul_rr (a, b)
  | And_rr (a, b) | Or_rr (a, b) | Xor_rr (a, b) | Shl_rr (a, b)
  | Shr_rr (a, b) ->
    (reg_bit a lor reg_bit b, false, false)
  | Load (_, r, a) | Store (_, a, r) -> (reg_bit r lor addr_regs a, true, false)
  | Lea (r, a) -> (reg_bit r lor addr_regs a, false, false)
  | Push r | Pop r -> (reg_bit r, true, false)
  | Call _ -> (0, true, false)  (* the pushed return slot is cleared *)
  | Call_r r -> (reg_bit r, true, false)
  | Jmp_r r -> (reg_bit r, false, false)
  | Cmp_rr (a, b) | Test_rr (a, b) -> (reg_bit a lor reg_bit b, false, true)
  | Cmp_ri (a, _) -> (reg_bit a, false, true)
  | Jz _ | Jnz _ | Jl _ | Jge _ | Jg _ | Jle _ -> (0, false, true)

let summarize entries =
  Array.fold_left
    (fun s e ->
      let regs, mem, flags = summarize_instr e.en_instr in
      {
        su_regs = s.su_regs lor regs;
        su_mem = s.su_mem || mem;
        su_flags = s.su_flags || flags;
      })
    { su_regs = 0; su_mem = false; su_flags = false }
    entries

(* -- translation --------------------------------------------------------- *)

let distinct_pfns entries =
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun e ->
      Array.iter
        (fun paddr ->
          let pfn = paddr lsr Mmu.page_shift in
          if not (Hashtbl.mem seen pfn) then Hashtbl.replace seen pfn ())
        e.en_code_paddrs)
    entries;
  Hashtbl.fold (fun pfn () acc -> pfn :: acc) seen [] |> Array.of_list

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
        b_key = key ~asid ~pc;
        b_asid = asid;
        b_entries;
        b_pfns = distinct_pfns b_entries;
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

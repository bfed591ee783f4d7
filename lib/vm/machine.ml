(* The machine: physical memory, its MMU, and the translation-block cache.

   CPUs (one per guest thread of control, managed by the kernel's scheduler)
   execute against the shared machine.  Execution hooks let whole-system
   analyses — the FAROS plugin in particular — observe every instruction,
   in the same position PANDA's instrumentation occupies over QEMU.

   [step] prefers the TB cache: a cursor remembers the block and entry the
   last step executed, so straight-line code costs one validity check per
   instruction; falling off the cursor costs a hashtable lookup; a cold pc
   costs one decode of the whole run.  Any of those failing (or the cache
   being off for this machine, see [tb_default_enabled]) falls back to the
   uncached fetch/decode interpreter, whose effects the cached path
   reproduces byte-identically. *)

type t = {
  mem : Phys_mem.t;
  mmu : Mmu.t;
  mutable hooks : (Cpu.t -> Cpu.effect -> unit) array;
  tb : Tb_cache.t;
  tb_enabled : bool;
  dift_fast : bool;
  mutable cur_block : Tb_cache.block option;
  mutable cur_idx : int;
}

(* The one switch per optimisation: process-wide, read once by [create],
   so the differential harness and CI can force the uncached interpreter /
   always-on propagation without plumbing a flag through every layer. *)
let tb_default_enabled = ref (Sys.getenv_opt "FAROS_NO_TBCACHE" = None)
let dift_fast_default_enabled = ref (Sys.getenv_opt "FAROS_NO_DIFTFAST" = None)

let create () =
  let mem = Phys_mem.create () in
  let mmu = Mmu.create mem in
  let tb = Tb_cache.create mmu in
  Mmu.set_smc_hooks mmu
    ~on_code_write:(fun paddr len -> Tb_cache.invalidate_range tb paddr len)
    ~on_mapping_change:(fun asid -> Tb_cache.invalidate_asid tb asid);
  {
    mem;
    mmu;
    hooks = [||];
    tb;
    tb_enabled = !tb_default_enabled;
    dift_fast = !dift_fast_default_enabled;
    cur_block = None;
    cur_idx = 0;
  }

(* The fast path only exists on top of cached blocks, so it is effectively
   [dift_fast && tb_enabled]; consumers (the FAROS plugin) read this at
   attach time. *)
let dift_fast_enabled t = t.dift_fast && t.tb_enabled

let tb_stats t = Tb_cache.stats t.tb
let tlb_stats t = Mmu.tlb_stats t.mmu

let retire_asid t asid = Tb_cache.invalidate_asid t.tb asid

(* Hooks run after each successfully executed instruction, in registration
   order.  Stored as an array snapshot and iterated by index so dispatch
   allocates nothing per instruction. *)
let add_exec_hook t f = t.hooks <- Array.append t.hooks [| f |]

let dispatch t cpu eff =
  let hooks = t.hooks in
  for i = 0 to Array.length hooks - 1 do
    (Array.unsafe_get hooks i) cpu eff
  done

let exec_entry t cpu (e : Tb_cache.entry) =
  Cpu.exec ~code_paddrs:e.en_code_paddrs cpu t.mmu ~instr:e.en_instr ~len:e.en_len

let step_cached t (cpu : Cpu.t) =
  let asid = cpu.cr3 and pc = cpu.pc in
  (* The cursor survives as long as execution stays inside the block it
     points at: the block is still valid (no SMC, no mapping change), the
     CPU is still in the same space, and pc matches the next entry —
     a syscall handler or interrupt may have moved it. *)
  let entry =
    match t.cur_block with
    | Some b
      when b.b_valid && b.b_asid = asid
           && t.cur_idx < Array.length b.b_entries
           && (Array.unsafe_get b.b_entries t.cur_idx).en_pc = pc ->
      Tb_cache.record_hit t.tb;
      Some (Array.unsafe_get b.b_entries t.cur_idx)
    | _ -> (
      t.cur_block <- None;
      match Tb_cache.lookup t.tb ~asid ~pc with
      | Some b ->
        Tb_cache.record_hit t.tb;
        t.cur_block <- Some b;
        t.cur_idx <- 0;
        Some b.b_entries.(0)
      | None -> (
        Tb_cache.record_miss t.tb;
        match Tb_cache.translate t.tb ~asid ~pc with
        | Some b ->
          t.cur_block <- Some b;
          t.cur_idx <- 0;
          Some b.b_entries.(0)
        | None -> None))
  in
  match entry with
  | Some e -> (
    match exec_entry t cpu e with
    | Ok _ as r ->
      t.cur_idx <- t.cur_idx + 1;
      r
    | Error _ as r ->
      (* Leave the cursor; pc is unchanged so the re-check next step either
         retries the same entry (same result as the uncached retry) or
         drops a block retired in between. *)
      r)
  | None ->
    (* Translation failed at the very first instruction: fall back to the
       uncached interpreter so the fault is rediscovered byte-identically. *)
    Cpu.step cpu t.mmu

let step t cpu =
  let r =
    if t.tb_enabled && not cpu.Cpu.halted then step_cached t cpu
    else Cpu.step cpu t.mmu
  in
  match r with
  | Ok eff ->
    dispatch t cpu eff;
    r
  | Error _ -> r

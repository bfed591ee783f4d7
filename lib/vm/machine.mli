(** The machine: physical memory, its MMU, and the translation-block cache.

    CPUs (one per guest process, managed by the kernel's scheduler) execute
    against the shared machine.  Execution hooks let whole-system analyses
    — the FAROS plugin in particular — observe every instruction, in the
    same position PANDA's instrumentation occupies over QEMU.

    {!step} executes through the TB cache when enabled; the cached path
    produces byte-identical effects, faults and telemetry versus the
    uncached interpreter (differentially tested), it is just faster.

    The TB cache and the DIFT fast path have one switch each: the
    process-wide defaults below, which {!create} reads once. *)

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

val tb_default_enabled : bool ref
(** [tb_enabled] of machines created from now on.  Starts [false] when the
    [FAROS_NO_TBCACHE] environment variable is set. *)

val dift_fast_default_enabled : bool ref
(** [dift_fast] of machines created from now on: whether the DIFT plugin
    may skip propagation over blocks whose summary proves no tainted state
    is in reach (see docs/dift-engine.md).  Starts [false] when the
    [FAROS_NO_DIFTFAST] environment variable is set. *)

val create : unit -> t
(** A machine whose [tb_enabled] and [dift_fast] are the current
    defaults; they stay fixed for its lifetime. *)

val dift_fast_enabled : t -> bool
(** Whether the fast path may be used: the knob is on {e and} the TB cache
    is enabled (summaries only exist on cached blocks). *)

val tb_stats : t -> Tb_cache.stats
val tlb_stats : t -> int * int

val retire_asid : t -> int -> unit
(** Drop all cached blocks of an address space — called on process exit. *)

val add_exec_hook : t -> (Cpu.t -> Cpu.effect -> unit) -> unit
(** Hooks run after each successfully executed instruction, in registration
    order. *)

val step : t -> Cpu.t -> Cpu.step_result
(** Execute one instruction (cached when possible) plus hook dispatch. *)

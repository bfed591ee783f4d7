(** Translation-block cache: decode straight-line runs once, execute many.

    Blocks are keyed by [(asid, pc)] and carry pre-decoded instructions
    plus the pre-resolved physical address of every code byte, so a cached
    visit performs no byte fetches and no {!Decode.decode} call.

    Invalidation contract (self-modifying code safety):
    - a store into any frame holding cached code must call
      {!invalidate_paddr} (wired via {!Mmu.set_smc_hooks});
    - any mapping change in a space must call {!invalidate_asid};
    - process exit retires the space's blocks via {!invalidate_asid}.

    Retired blocks flip [b_valid] so cursors holding them drop them. *)

type entry = {
  en_pc : int;
  en_instr : Isa.t;
  en_len : int;
  en_code_paddrs : int array;
}

type summary = {
  su_regs : int;  (** bitmask over [Isa.num_regs] of registers the block
                      names anywhere — operand or effective-address
                      position, read or write.  A write matters because
                      propagation may {e clear} a tainted destination, so
                      the fast path must run whenever a named register is
                      tainted. *)
  su_mem : bool;  (** any load, store, push/pop or call-frame access *)
  su_flags : bool;  (** any flag write (compares) or flag read
                        (conditional jumps) *)
}
(** Per-block taint summary, compiled once at decode time.  Deliberately
    over-approximates the propagation engine's reads and writes: a
    register the engine happens to ignore only costs a spurious slow-path
    run, never a missed propagation.  See docs/dift-engine.md. *)

type block = {
  b_key : int;
  b_asid : int;
  b_entries : entry array;
  b_pfns : int array;  (** distinct frames holding this block's code bytes *)
  b_summary : summary;
  mutable b_valid : bool;
}

type t

type stats = {
  st_hits : int;
  st_misses : int;
  st_invalidations : int;
  st_blocks : int;  (** live blocks right now *)
  st_summarized : int;  (** blocks whose summary was ever compiled *)
}

val max_entries : int

val create : Mmu.t -> t

val translate : t -> asid:int -> pc:int -> block option
(** Decode and register a block starting at [(asid, pc)].  A mid-run fault
    truncates the block; a fault on the first instruction yields [None]
    (caller falls back to the uncached interpreter so faults stay
    byte-identical).  Counts as one miss — record it with
    {!record_miss}. *)

val lookup : t -> asid:int -> pc:int -> block option

val invalidate_paddr : t -> int -> unit
(** Retire every block whose code bytes share the frame of this physical
    address. *)

val invalidate_asid : t -> int -> unit
(** Retire every block belonging to this address space. *)

val record_hit : t -> unit
val record_miss : t -> unit

val stats : t -> stats

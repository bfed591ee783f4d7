(** Shadow state: provenance for guest memory, registers and flags.

    Shadow memory is keyed by {e physical} address and is byte granular.
    It is a two-level page table — a directory indexed by page number
    (a {!Faros_vm.Phys_mem} frame number, dense from 0) of 4 KiB pages of
    interned provenance ids ({!Provenance.id}), id 0 meaning empty, each id
    a 4-byte slot in a block the GC does not scan — so reads and writes
    are one 32-bit load or store and {!tainted_bytes} is a counter read.
    Shadow registers are per address space (one guest CPU per process)
    at whole-register granularity — a documented simplification over the
    paper's byte-granular memory.  Shadow flags feed the
    control-dependency policy. *)

type t

val page_size : int
(** Bytes per shadow page (4096). *)

val page_shift : int
(** [log2 page_size] (12): [paddr lsr page_shift] is a shadow page number. *)

val create : ?sink:Faros_obs.Sink.t -> unit -> t
(** [sink] receives a ["page_alloc"] trace event (category ["shadow"])
    each time a shadow page materializes; defaults to the disabled sink.
    The page ids resolve against the calling domain's current
    {!Provenance.store}, captured here; provenance written into this
    shadow must be interned under that same store. *)

val interner : t -> Provenance.store
(** The store this shadow's ids resolve against. *)

val get_mem : t -> int -> Provenance.t
(** Provenance of the byte at a physical address (empty if untracked). *)

val set_mem : t -> int -> Provenance.t -> unit
(** Setting an empty provenance clears the entry (never allocates). *)

val get_reg : t -> asid:int -> int -> Provenance.t
val set_reg : t -> asid:int -> int -> Provenance.t -> unit

val get_flags : t -> asid:int -> Provenance.t
val set_flags : t -> asid:int -> Provenance.t -> unit

val get_mem_range : t -> int -> int -> Provenance.t
(** [get_mem_range t paddr width] is the union over [width] bytes. *)

val set_mem_range : t -> int -> int -> Provenance.t -> unit

val tainted_bytes : t -> int
(** Number of bytes currently carrying non-empty provenance (O(1)). *)

val tainted_regs : t -> int

val pages : t -> int
(** Number of shadow pages materialized since creation. *)

val page_tainted_bytes : t -> int -> int
(** [page_tainted_bytes t paddr] is the number of non-empty bytes on the
    4 KiB shadow page containing [paddr] — one directory index (0 for a
    never-materialized page).  Kept exact on every mutation path; the
    property suite cross-checks it against a brute-force page scan. *)

val iter_runs : t -> int -> (int -> int -> int -> unit) -> unit
(** [iter_runs t paddr f] calls [f off len id] once for each maximal run
    of [len] bytes at page offset [off] that share one non-zero interned
    id ([id], resolved against {!interner}), in ascending [off], on the
    shadow page containing [paddr].  A run never crosses the page's end.
    Calls nothing for a never-materialized page or one whose live count
    fell back to 0.  One directory index, then a scan of the page's slots
    in place: the page-at-a-time walk behind the provenance queries. *)

val page_tainted : t -> int -> bool
(** [page_tainted t paddr]: does the shadow page containing [paddr] carry
    any taint at all?  The fast-path pre-check's O(1) page probe. *)

val byte_tainted : t -> int -> bool
(** Is this byte's provenance non-empty?  One probe plus a slot read —
    the byte-exact refinement used when a page probe says "live" but the
    taint may not be under the bytes that matter (guest images pack data
    buffers onto the same pages as code). *)

val range_tainted : t -> int -> int -> bool
(** [range_tainted t paddr width]: any taint under these bytes?  A page
    probe per page touched, scanning only live pages. *)

val generation : t -> int
(** Monotonic counter of {e shadow mutations}: any byte's interned id
    changing (taint created, cleared or re-tagged), a register or the
    flags crossing empty/non-empty, or an explicit {!bump_generation}.
    Consumers caching shadow-derived per-block facts (the DIFT fast
    path's verdicts and converged fetch provenance) revalidate when this
    moves.  Writing a byte the id it already has is not a mutation, so
    converged hot loops leave the counter still. *)

val bump_generation : t -> unit
(** Force-invalidate cached untainted verdicts (the engine calls this when
    a control-dependency window opens — taint state the shadow tables do
    not see). *)

val iter_mem : t -> (int -> Provenance.t -> unit) -> unit
(** Every tainted byte, in ascending physical address. *)

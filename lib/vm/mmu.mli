(** MMU: virtual address spaces over {!Phys_mem}.

    Each guest process owns one address space; its identifier plays the
    role x86's CR3 plays in the paper — the architecture-level identity of
    a process, and the value FAROS uses for process tags.  The kernel
    region is a set of frames mapped (shared) into every address space,
    which is what lets export-table tags, attached to physical bytes, be
    visible from any process.

    Translation runs behind a direct-mapped software TLB; mapping
    mutations flush it.  The module also carries the self-modifying-code
    plumbing the translation-block cache relies on: frames holding cached
    code are marked, stores into them are reported through
    [on_code_write] as the physical byte range written (one byte per
    guest store byte, one range per page chunk of a host copy), and
    mapping changes through [on_mapping_change]. *)

type space = {
  asid : int;  (** the "CR3" value *)
  mutable space_name : string;
  table : (int, int) Hashtbl.t;  (** vpn -> pfn *)
}

type t = {
  mem : Phys_mem.t;
  spaces : (int, space) Hashtbl.t;
  mutable next_asid : int;
  tlb_tags : int array;
  tlb_pfns : int array;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable code_pages : Bytes.t;
  mutable on_code_write : int -> int -> unit;
  mutable on_mapping_change : int -> unit;
}

exception Page_fault of { asid : int; vaddr : int }

val page_size : int
val page_shift : int

val create : Phys_mem.t -> t
val create_space : t -> name:string -> space

val space_name : t -> int -> string
(** Display name for an address space (process image name). *)

val set_smc_hooks :
  t -> on_code_write:(int -> int -> unit) -> on_mapping_change:(int -> unit) -> unit
(** Subscribe the TB cache: [on_code_write paddr len] fires on every store
    into a frame marked by {!mark_code_page}, with the physical range it
    wrote there — [len = 1] for each byte of a guest store, the whole
    chunk for each page chunk of a host copy; the range never leaves the
    frame.  [on_mapping_change asid] fires on every map / map_frames /
    unmap of that space. *)

val mark_code_page : t -> int -> unit
(** Mark a frame as holding cached code so stores into it are reported. *)

val clear_code_page : t -> int -> unit

val tlb_stats : t -> int * int
(** [(hits, misses)] of the software TLB since creation. *)

val map : t -> space -> vaddr:int -> pages:int -> unit
(** Map fresh frames at a page-aligned virtual address.  They read as
    zeros and take no host storage until written ({!Phys_mem}). *)

val map_frames : t -> space -> vaddr:int -> int list -> unit
(** Map existing frames (sharing). *)

val unmap : t -> space -> vaddr:int -> pages:int -> unit

val frames_of : space -> vaddr:int -> pages:int -> int list
(** Frame numbers backing a mapped range.  Raises {!Page_fault} on holes. *)

val is_mapped : space -> vaddr:int -> bool

val unmapped : space -> vaddr:int -> pages:int -> bool
(** Whether none of the [pages] pages from [vaddr] is mapped — the test
    an allocation or an image load passes before it maps anything. *)

val mapped_ranges : space -> (int * int) list
(** Contiguous mapped ranges as (vaddr, byte length), sorted. *)

val translate : t -> asid:int -> int -> int
(** Virtual to physical.  Raises {!Page_fault}. *)

val read_u8 : t -> asid:int -> int -> int
val write_u8 : t -> asid:int -> int -> int -> unit

val read : width:int -> t -> asid:int -> int -> int
(** Little-endian; accesses may span pages. *)

val write : width:int -> t -> asid:int -> int -> int -> unit

val read_bytes : t -> asid:int -> int -> int -> Bytes.t
(** Host-side copy out of guest memory: one translation and one blit per
    page, materializing no frame.  Raises {!Page_fault} at the first byte
    of an unmapped page. *)

val write_bytes : t -> asid:int -> int -> Bytes.t -> unit
(** Host-side copy into guest memory: one translation and one blit per
    page, and one [on_code_write paddr n] per page chunk that lands on a
    code frame, covering the chunk's [n] bytes.  A {!Page_fault} leaves
    the pages before the faulting one written. *)

val extents : t -> asid:int -> int -> int -> Extent.t list
(** [extents t ~asid vaddr len]: the physical extents of a guest range,
    one translation per page, physically adjacent chunks merged — what
    kernel events report so taint can follow host-side copies.  Empty for
    a non-positive [len]; raises {!Page_fault} like {!translate}. *)

val phys_range_array : t -> asid:int -> int -> int -> int array
(** Physical address of each of the [len] bytes at a virtual address —
    the representation execution effects carry for code bytes. *)

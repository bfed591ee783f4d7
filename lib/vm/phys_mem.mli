(** Physical memory: a dense, growable store of 4 KiB demand-zero frames.

    Frame numbers are handed out densely from 0 and index an array.  A
    frame holds no bytes of its own until something writes it: reads of
    it see one shared zero page, which nothing ever writes, so host
    memory follows what guests write rather than what they map.

    Shadow (taint) state is keyed on physical addresses, so frame identity
    is the ground truth that lets taint survive cross-address-space
    sharing (the kernel's export-table region is one set of frames mapped
    everywhere). *)

val page_size : int
val page_shift : int

type t

exception Bad_frame of int

val create : unit -> t

val alloc_frame : t -> int
(** Hand out the next frame number.  The frame reads as zeros and takes
    no storage until it is first written. *)

val frame : t -> int -> Bytes.t
(** The frame's own bytes, for a caller that writes them: a frame not yet
    written gets its own zeroed 4 KiB first, and counts as resident from
    then on.  Raises {!Bad_frame}. *)

val frame_count : t -> int
(** Frames handed out by {!alloc_frame}. *)

val resident_frames : t -> int
(** Frames holding their own bytes: those a write or {!frame} reached. *)

val read_u8 : t -> int -> int
(** Read the byte at a physical address ([pfn * page_size + offset]). *)

val write_u8 : t -> int -> int -> unit

val blit_out : t -> int -> Bytes.t -> int -> int -> unit
(** [blit_out t paddr dst off len] copies the [len] bytes at [paddr],
    which must lie in one frame, into [dst] at [off].  Like the reads, it
    never gives a frame its own bytes. *)

val read : width:int -> t -> int -> int
(** Little-endian multi-byte read. *)

val write : width:int -> t -> int -> int -> unit

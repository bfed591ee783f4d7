(** Physical extents: a guest buffer as runs of contiguous physical bytes.

    {!Mmu.extents} resolves a virtual range into these with one
    translation per page, merging physically adjacent chunks.  Kernel
    events carry extent lists so that taint can follow host-side copies
    at one entry per page rather than one address per byte. *)

type t = { paddr : int; len : int }

val total : t list -> int
(** Bytes covered by a list of extents. *)

val iter : (int -> unit) -> t list -> unit
(** Every physical byte address, in buffer order. *)

val iter2 : (int -> int -> unit) -> t list -> t list -> unit
(** [iter2 f src dst] calls [f s d] for the [n]th byte [s] of [src] and
    the [n]th byte [d] of [dst], in buffer order, stopping at the end of
    the shorter list. *)

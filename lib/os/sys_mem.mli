(** Virtual-memory syscall handlers: allocation, cross-process copies,
    unmapping.

    [write_virtual_memory] is the injection primitive; the kernel performs
    the copy host-side (a page at a time) and reports source and
    destination physical extents so the DIFT engine can apply per-byte
    copy propagation across address spaces — the step that carries netflow
    provenance from the injecting client into the victim. *)

type handler := Kstate.t -> Process.t -> int array -> int

val allocate : handler
val write_virtual_memory : handler
val read_virtual_memory : handler
val unmap_view : handler

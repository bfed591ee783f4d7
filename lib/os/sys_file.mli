(** Filesystem syscall handlers — the hooks FAROS's file-tag insertion
    driver intercepts.  Reads and writes report the guest-side physical
    extents so provenance can flow through files (Fig. 4's File 1
    hop). *)

type handler := Kstate.t -> Process.t -> int array -> int

val create_file : handler
val open_file : handler
val read_file : handler
val write_file : handler
val close : handler
val delete_file : handler
val query_size : handler
val set_position : handler
val query_directory : handler
val flush_buffers : handler
val query_attributes : handler

(** Loader and device syscall handlers. *)

type handler := Kstate.t -> Process.t -> int array -> int

val load_library : handler
(** The benign Windows loading path the reflective technique bypasses.
    Returns -1 for an image whose imports the kernel does not export,
    before anything is mapped. *)

val get_proc_address : handler
(** Kernel-side symbol resolution: the process never touches the export
    directory itself. *)

val key_read : handler
val audio_record : handler
val screenshot : handler
val popup : handler
val debug_print : handler

(** Process creation: read an image from the filesystem, build an address
    space with the kernel mapped in, load the image, and report every byte
    that came from the file so provenance starts at the file. *)

exception Bad_executable of string

val spawn :
  Kstate.t -> path:string -> suspended:bool -> parent:Types.pid option -> Types.pid
(** Raises {!Bad_executable} for a missing or malformed image and
    {!Loader.Unresolved_import} for one the kernel cannot link; both are
    raised before an address space is created. *)

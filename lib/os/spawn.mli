(** Process creation: read an image from the filesystem, build an address
    space with the kernel mapped in, load the image, and report every byte
    that came from the file so provenance starts at the file. *)

exception Bad_executable of string

val read_image : Kstate.t -> string -> (string * int) option
(** The whole image file at a path, read through {!Fs.open_file} (which
    bumps its version), with that version; [None] for a missing file. *)

val image_loaded :
  Kstate.t -> pid:Types.pid -> path:string -> version:int -> Loader.loaded -> unit
(** Report a loaded image's file provenance: one [File_read] per
    non-empty section extent, then one [Module_loaded]. *)

val spawn :
  Kstate.t -> path:string -> suspended:bool -> parent:Types.pid option -> Types.pid
(** Raises {!Bad_executable} for a missing or malformed image (including
    one {!Loader.check} rejects for its layout) and
    {!Loader.Unresolved_import} for one the kernel cannot link; both are
    raised before an address space is created. *)

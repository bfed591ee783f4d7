(** The kernel region and its export table.

    The kernel's API stubs and export directory live in physical frames
    shared into every process address space at 0x80000000+, mirroring how
    Windows maps ntdll/kernel32 everywhere.  The export directory is the
    memory the paper's export-table tag covers: an array of
    (name-hash, function-pointer) entries that reflective loaders walk to
    resolve LoadLibraryA / GetProcAddress / VirtualAlloc without asking the
    OS.  FAROS taints the function-pointer words; [pointers_by_name] hands
    their physical extents to the taint-insertion pass. *)

val kernel_base : int
val kernel_stub_pages : int
val export_dir_vaddr : int
val export_dir_pages : int

val hash_name : string -> int
(** djb2 — the name hash reflective payloads embed as constants (standing
    in for the ROR13 hashes of real shellcode). *)

type t = {
  exports : (string * int) list;  (** API name -> stub vaddr *)
  stub_frames : int list;
  dir_frames : int list;
  pointers_by_name : (string * Faros_vm.Extent.t list) list;
      (** per exported function: the physical extents of its 4-byte
          directory pointer — what FAROS's startup scan taints *)
  stub_span : int;
  space : Faros_vm.Mmu.space;  (** the kernel's own view *)
}

val in_kernel : int -> bool
(** Is a virtual address inside the kernel region?  (Used to classify
    syscalls as stub-mediated vs raw.) *)

val build : Faros_vm.Machine.t -> t
(** Map the kernel region into a new kernel address space, copy in the API
    stubs and the export directory, and return the layout.  Both byte
    regions are built once per process.  Directory format: a 4-byte entry
    count, then 8-byte entries of (name hash, function pointer). *)

val map_into : t -> Faros_vm.Mmu.t -> Faros_vm.Mmu.space -> unit
(** Share the kernel region into a process address space. *)

val stub_addr : t -> string -> int
(** Stub address of an exported API.  Raises [Not_found]. *)

val entry_count : t -> int
val entries_vaddr : int

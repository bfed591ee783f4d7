(** Image loader.

    Maps a MiniPE image into an address space, copies section bytes in, and
    resolves imports by writing kernel-stub addresses into the image's IAT
    slots — the benign linking path, under which the {e process} never
    reads the export directory (the kernel does the lookup), so ordinary
    imports never trip FAROS's export-table policy. *)

type loaded = {
  ld_image : Pe.t;
  ld_entry : int;
  ld_section_extents : (string * Faros_vm.Extent.t list) list;
      (** per section: the physical extents that received file bytes, so
          the kernel can report the load as a file read *)
}

exception Unresolved_import of string

val check : Export_table.t -> Pe.t -> unit
(** Whether {!load} would accept the image — what process creation checks
    before it builds an address space.  Raises {!Pe.Bad_image} for a
    section that starts below the image base or ends past the 32-bit
    address space, or an IAT slot outside every section, and
    {!Unresolved_import} for the first import the kernel does not
    export. *)

val load : Faros_vm.Mmu.t -> Faros_vm.Mmu.space -> Export_table.t -> Pe.t -> loaded
(** Map, copy and link an image, mapping only the pages its sections
    cover.  Runs {!check} first: when it raises, nothing has been mapped
    or written. *)

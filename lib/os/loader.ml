(* Image loader.

   Maps a MiniPE image into an address space, copies section bytes in, and
   resolves imports by writing kernel-stub addresses into the image's IAT
   slots — the benign linking path, which never makes the *process* read the
   export directory (the kernel does the lookup), so ordinary imports never
   trip FAROS's export-table policy.

   Imports are resolved before anything is mapped, so an image the kernel
   cannot link leaves the address space as it was.  Returns the physical
   extents that received file bytes so the kernel can report the load as a
   file read for provenance purposes. *)

type loaded = {
  ld_image : Pe.t;
  ld_entry : int;
  ld_section_extents : (string * Faros_vm.Extent.t list) list;
      (* section name -> where its bytes landed *)
}

exception Unresolved_import of string

(* (IAT slot, stub address) per import, in import order. *)
let resolve_imports (exports : Export_table.t) (image : Pe.t) =
  List.map
    (fun (api, slot) ->
      match List.assoc_opt api exports.exports with
      | Some addr -> (slot, addr)
      | None -> raise (Unresolved_import api))
    image.imports

let check_imports exports image = ignore (resolve_imports exports image)

let load (mmu : Faros_vm.Mmu.t) (space : Faros_vm.Mmu.space)
    (exports : Export_table.t) (image : Pe.t) : loaded =
  let iat = resolve_imports exports image in
  let pages = Pe.mapped_pages image in
  Faros_vm.Mmu.map mmu space ~vaddr:image.base ~pages;
  let asid = space.asid in
  let section_extents =
    List.map
      (fun (s : Pe.section) ->
        Faros_vm.Mmu.write_bytes mmu ~asid s.sec_vaddr (Bytes.of_string s.sec_data);
        ( s.sec_name,
          Faros_vm.Mmu.extents mmu ~asid s.sec_vaddr (String.length s.sec_data) ))
      image.sections
  in
  List.iter (fun (slot, addr) -> Faros_vm.Mmu.write ~width:4 mmu ~asid slot addr) iat;
  { ld_image = image; ld_entry = image.entry; ld_section_extents = section_extents }

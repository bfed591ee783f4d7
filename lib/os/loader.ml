(* Image loader.

   Maps a MiniPE image into an address space, copies section bytes in, and
   resolves imports by writing kernel-stub addresses into the image's IAT
   slots — the benign linking path, which never makes the *process* read the
   export directory (the kernel does the lookup), so ordinary imports never
   trip FAROS's export-table policy.

   The layout and the imports are checked before anything is mapped, so an
   image the kernel cannot load leaves the address space as it was.  Only
   the pages the sections cover are mapped, however far apart the sections
   lie.  Returns the physical extents that received file bytes so the
   kernel can report the load as a file read for provenance purposes. *)

type loaded = {
  ld_image : Pe.t;
  ld_entry : int;
  ld_section_extents : (string * Faros_vm.Extent.t list) list;
      (* section name -> where its bytes landed *)
}

exception Unresolved_import of string

let section_end (s : Pe.section) = s.sec_vaddr + String.length s.sec_data

(* Every write [load] makes must land in a page it maps: each section lies
   between the base and the top of the 32-bit address space, and each IAT
   slot inside a section.  Returns the (IAT slot, stub address) writes, in
   import order. *)
let link (exports : Export_table.t) (image : Pe.t) =
  let bad fmt = Printf.ksprintf (fun m -> raise (Pe.Bad_image m)) fmt in
  List.iter
    (fun (s : Pe.section) ->
      if s.sec_vaddr < image.base then
        bad "section %s starts below the image base" s.sec_name;
      if section_end s > 1 lsl 32 then
        bad "section %s ends past the 32-bit address space" s.sec_name)
    image.sections;
  List.map
    (fun (api, slot) ->
      let holds (s : Pe.section) =
        s.sec_vaddr <= slot && slot + 4 <= section_end s
      in
      if not (List.exists holds image.sections) then
        bad "IAT slot of %s lies outside every section" api;
      match List.assoc_opt api exports.exports with
      | Some addr -> (slot, addr)
      | None -> raise (Unresolved_import api))
    image.imports

let check exports image = ignore (link exports image)

(* The pages the sections cover, as (vaddr, pages) runs in address order. *)
let page_runs (image : Pe.t) =
  let page = Faros_vm.Phys_mem.page_size in
  let vpns =
    List.concat_map
      (fun (s : Pe.section) ->
        if s.sec_data = "" then []
        else
          let first = s.sec_vaddr / page and last = (section_end s - 1) / page in
          List.init (last - first + 1) (fun i -> first + i))
      image.sections
    |> List.sort_uniq compare
  in
  List.fold_right
    (fun vpn runs ->
      match runs with
      | (next, n) :: rest when next = vpn + 1 -> (vpn, n + 1) :: rest
      | _ -> (vpn, 1) :: runs)
    vpns []
  |> List.map (fun (vpn, pages) -> (vpn * page, pages))

let load (mmu : Faros_vm.Mmu.t) (space : Faros_vm.Mmu.space)
    (exports : Export_table.t) (image : Pe.t) : loaded =
  let iat = link exports image in
  List.iter
    (fun (vaddr, pages) -> Faros_vm.Mmu.map mmu space ~vaddr ~pages)
    (page_runs image);
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

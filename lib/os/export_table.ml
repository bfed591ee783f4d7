(* The kernel region and its export table.

   The kernel's API stubs and export directory live in physical frames
   shared into every process address space at 0x8000_0000+, mirroring how
   Windows maps ntdll/kernel32 everywhere.  The export directory is the
   memory the paper's export-table tag covers: an array of
   (name-hash, function-pointer) entries that reflective loaders walk to
   resolve LoadLibraryA / GetProcAddress / VirtualAlloc without asking the
   OS.  FAROS taints the function-pointer words; [pointers_by_name] hands
   their physical extents to the taint-insertion pass. *)

let kernel_base = 0x80000000
let kernel_stub_pages = 4
let export_dir_vaddr = 0x80100000
let export_dir_pages = 1

(* djb2: the name hash reflective payloads embed as constants (standing in
   for the ROR13 hashes of real shellcode). *)
let hash_name s =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0xFFFFFFFF) s;
  !h

type t = {
  exports : (string * int) list;  (* API name -> stub vaddr *)
  stub_frames : int list;  (* pfns of the stub code region *)
  dir_frames : int list;  (* pfns of the export directory *)
  pointers_by_name : (string * Faros_vm.Extent.t list) list;  (* per exported function *)
  stub_span : int;  (* bytes of stub code *)
  space : Faros_vm.Mmu.space;  (* the kernel's own view *)
}

let in_kernel vaddr = vaddr >= kernel_base

(* Stub code, [mov r0, sysno; syscall; ret] per API, and the export
   directory, a 4-byte count then (hash, pointer) pairs.  Both depend only
   on [Syscall.exported_apis], so they are built once, at module
   initialisation — before any worker domain exists — as strings, and
   every kernel copies them in. *)
let stub_code, exports =
  let items =
    List.concat_map
      (fun (api, sysno) ->
        [
          Faros_vm.Asm.Label api;
          Faros_vm.Asm.I (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r0, sysno));
          Faros_vm.Asm.I Faros_vm.Isa.Syscall;
          Faros_vm.Asm.I Faros_vm.Isa.Ret;
        ])
      Syscall.exported_apis
  in
  let prog = Faros_vm.Asm.assemble ~origin:kernel_base items in
  ( Bytes.to_string prog.code,
    List.map (fun (api, _) -> (api, Faros_vm.Asm.lookup prog api)) Syscall.exported_apis )

let directory =
  let b = Bytes.create (4 + (8 * List.length exports)) in
  let w32 off v = Bytes.set_int32_le b off (Int32.of_int v) in
  w32 0 (List.length exports);
  List.iteri
    (fun i (api, addr) ->
      w32 (4 + (8 * i)) (hash_name api);
      w32 (8 + (8 * i)) addr)
    exports;
  Bytes.to_string b

let build (machine : Faros_vm.Machine.t) =
  let mmu = machine.mmu in
  let space = Faros_vm.Mmu.create_space mmu ~name:"kernel" in
  Faros_vm.Mmu.map mmu space ~vaddr:kernel_base ~pages:kernel_stub_pages;
  Faros_vm.Mmu.map mmu space ~vaddr:export_dir_vaddr ~pages:export_dir_pages;
  Faros_vm.Mmu.write_bytes mmu ~asid:space.asid kernel_base (Bytes.of_string stub_code);
  Faros_vm.Mmu.write_bytes mmu ~asid:space.asid export_dir_vaddr (Bytes.of_string directory);
  let pointers_by_name =
    List.mapi
      (fun i (api, _) ->
        let ptr_vaddr = export_dir_vaddr + 4 + (8 * i) + 4 in
        (api, Faros_vm.Mmu.extents mmu ~asid:space.asid ptr_vaddr 4))
      exports
  in
  {
    exports;
    stub_frames =
      Faros_vm.Mmu.frames_of space ~vaddr:kernel_base ~pages:kernel_stub_pages;
    dir_frames =
      Faros_vm.Mmu.frames_of space ~vaddr:export_dir_vaddr ~pages:export_dir_pages;
    pointers_by_name;
    stub_span = String.length stub_code;
    space;
  }

(* Share the kernel region into a process address space. *)
let map_into t mmu space =
  Faros_vm.Mmu.map_frames mmu space ~vaddr:kernel_base t.stub_frames;
  Faros_vm.Mmu.map_frames mmu space ~vaddr:export_dir_vaddr t.dir_frames

let stub_addr t api =
  match List.assoc_opt api t.exports with
  | Some a -> a
  | None -> raise Not_found

(* Directory layout helpers used by guest payload builders. *)
let entry_count t = List.length t.exports
let entries_vaddr = export_dir_vaddr + 4

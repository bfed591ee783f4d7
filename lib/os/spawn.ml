(* Process creation: read an image from the filesystem, build an address
   space with the kernel mapped in, load the image, and report every extent
   that came from the file so provenance starts at the file. *)

exception Bad_executable of string

(* The whole image file at [path] and the version the read gave it
   ([Fs.open_file] bumps it), or [None] for a missing file. *)
let read_image (k : Kstate.t) path =
  if not (Fs.exists k.fs path) then None
  else
    let f = Fs.open_file k.fs path in
    Some (Bytes.to_string (Fs.read f ~offset:0 ~len:(Bytes.length f.data)), f.version)

(* The loaded image's bytes came from [path]: file provenance, one
   [File_read] per non-empty section extent, then the [Module_loaded]. *)
let image_loaded (k : Kstate.t) ~pid ~path ~version (loaded : Loader.loaded) =
  List.iter
    (fun (_, dst) ->
      if dst <> [] then
        Kstate.emit k (Os_event.File_read { pid; path; version; offset = 0; dst }))
    loaded.ld_section_extents;
  let image = loaded.ld_image in
  Kstate.emit k (Os_event.Module_loaded { pid; image = image.img_name; base = image.base })

let spawn (k : Kstate.t) ~path ~suspended ~parent : Types.pid =
  let image_bytes, version =
    match read_image k path with
    | Some read -> read
    | None -> raise (Bad_executable path)
  in
  let image =
    try
      let image = Pe.parse image_bytes in
      Loader.check k.exports image;
      image
    with Pe.Bad_image m -> raise (Bad_executable (path ^ ": " ^ m))
  in
  let mmu = k.machine.mmu in
  let space = Faros_vm.Mmu.create_space mmu ~name:image.img_name in
  Export_table.map_into k.exports mmu space;
  Faros_vm.Mmu.map mmu space ~vaddr:Process.stack_base ~pages:Process.stack_pages;
  let loaded = Loader.load mmu space k.exports image in
  let pid = k.next_pid in
  k.next_pid <- pid + 1;
  let cpu =
    Faros_vm.Cpu.create ~cr3:space.asid ~pc:loaded.ld_entry ~sp:Process.initial_sp
  in
  let p : Process.t =
    {
      pid;
      proc_name = image.img_name;
      cpu;
      space;
      state = (if suspended then Process.Suspended else Process.Ready);
      parent;
      handles = Hashtbl.create 8;
      next_handle = 8;
      heap_next = Process.heap_base;
      image = Some image;
      modules = [];
      exit_code = 0;
      fault = None;
      slice_budget = 0;
    }
  in
  Hashtbl.replace k.procs pid p;
  k.run_queue <- k.run_queue @ [ pid ];
  Kstate.emit k
    (Os_event.Proc_created
       { pid; name = image.img_name; parent; asid = space.asid; suspended });
  image_loaded k ~pid ~path ~version loaded;
  pid

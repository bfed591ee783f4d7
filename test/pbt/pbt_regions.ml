(* Property: the page walk behind the provenance queries
   ([Prov_query.regions_of_process]) reports exactly the runs of a
   per-byte reference walk — translate every mapped user byte, read its
   shadow provenance, coalesce — on random taint layouts.

   The layouts aim at the page walk's edges: runs that cross page
   boundaries, an unmapped page between two tainted bytes, virtually
   contiguous pages backed by scattered frames, a materialized shadow
   page whose live count fell back to 0, frames mapped into two
   processes, and the stack top, which abuts the kernel region shared
   into every process.  QCheck shrinks a failing command
   list toward the fewest taint writes that still tell the walks apart. *)

open Faros_dift

let page = Faros_vm.Mmu.page_size
let kernel_base = Faros_os.Export_table.kernel_base

(* The reference: translate every mapped user byte below the kernel
   region, read its shadow provenance, and coalesce the non-empty bytes
   of each mapped range into runs. *)
let reference (faros : Core.Faros_plugin.t) (p : Faros_os.Process.t) =
  let mmu = faros.kernel.machine.mmu in
  let shadow = faros.engine.shadow in
  let asid = Faros_os.Process.asid p in
  let runs = ref [] in
  let flush start len types sample =
    if len > 0 then
      runs :=
        {
          Core.Prov_query.rt_pid = p.pid;
          rt_process = p.proc_name;
          rt_vaddr = start;
          rt_len = len;
          rt_types = List.sort_uniq compare types;
          rt_sample = sample;
        }
        :: !runs
  in
  List.iter
    (fun (vaddr, size) ->
      let start = ref 0 and len = ref 0 in
      let types = ref [] and sample = ref Provenance.empty in
      for i = 0 to min size (kernel_base - vaddr) - 1 do
        let paddr = Faros_vm.Mmu.translate mmu ~asid (vaddr + i) in
        let prov = Shadow.get_mem shadow paddr in
        if Provenance.is_empty prov then begin
          flush !start !len !types !sample;
          len := 0;
          types := [];
          sample := Provenance.empty
        end
        else begin
          if !len = 0 then begin
            start := vaddr + i;
            sample := prov
          end;
          incr len;
          types := Provenance.distinct_types prov @ !types
        end
      done;
      flush !start !len !types !sample)
    (Faros_vm.Mmu.mapped_ranges p.space);
  List.rev !runs

(* Where a taint write lands.  [Seq] is three pages of process A on
   fresh frames (the first one ends up emptied); [Scattered] is four
   pages of A on frames in a generated order; [Shared] maps two of those
   frames into process B (in reverse order); [Stack_top] is the last two
   stack pages of A; [Stub] is the kernel stub region every process
   shares. *)
type area = Seq | Scattered | Shared | Stack_top | Stub

let area_name = function
  | Seq -> "seq"
  | Scattered -> "scattered"
  | Shared -> "shared"
  | Stack_top -> "stack-top"
  | Stub -> "stub"

let area_pages = function
  | Seq -> 3
  | Scattered -> 4
  | Shared -> 2
  | Stack_top -> 2
  | Stub -> Faros_os.Export_table.kernel_stub_pages

(* one unmapped page between [Seq] and [Scattered]: a gap ends a run *)
let seq_base = 0x20000000
let scattered_base = seq_base + ((area_pages Seq + 1) * page)
let shared_base = 0x30000000

let area_base = function
  | Seq -> seq_base
  | Scattered -> scattered_base
  | Shared -> shared_base
  | Stack_top -> kernel_base - (2 * page)
  | Stub -> kernel_base

(* Provenance values to write; index 0 clears.  Two share a type set
   under different ids, so a run's type union and its id changes are
   exercised separately. *)
let provs =
  [|
    Provenance.empty;
    Provenance.singleton (Tag.Netflow 0);
    Provenance.of_list [ Tag.Process 1; Tag.Netflow 0 ];
    Provenance.of_list [ Tag.File 0; Tag.Process 2 ];
    Provenance.of_list [ Tag.Export_table 3 ];
    Provenance.of_list [ Tag.Process 3; Tag.Netflow 1 ];
  |]

(* One taint write: [len] bytes at [off] into the area (clipped to its
   end), all carrying [provs.(prov)]. *)
type cmd = { area : area; off : int; len : int; prov : int }

let gen_cmd =
  let open QCheck.Gen in
  let* area = oneofl [ Seq; Scattered; Shared; Stack_top; Stub ] in
  let size = area_pages area * page in
  let* off =
    oneof
      [
        int_bound (size - 1);
        (* near a page boundary, so runs cross it *)
        map2
          (fun pg d -> max 0 (min (size - 1) ((pg * page) + d - 32)))
          (int_bound (area_pages area))
          (int_bound 63);
      ]
  in
  let* len = oneof [ int_range 1 16; int_range 1 600 ] in
  let* prov = frequency [ (1, return 0); (4, int_range 1 (Array.length provs - 1)) ] in
  return { area; off; len; prov }

let print_layout (order, cmds) =
  Printf.sprintf "frames [%s]; %s"
    (String.concat ";" (List.map string_of_int order))
    (String.concat "; "
       (List.map
          (fun c -> Printf.sprintf "%s+%d/%d<-%d" (area_name c.area) c.off c.len c.prov)
          cmds))

let arb_layout =
  QCheck.make ~print:print_layout
    ~shrink:QCheck.Shrink.(pair nil list)
    QCheck.Gen.(pair (shuffle_l [ 0; 1; 2; 3 ]) (list_size (int_range 1 12) gen_cmd))

let halt_image name =
  Faros_os.Pe.of_program ~name ~base:Faros_os.Process.image_base
    [ Faros_vm.Asm.I Faros_vm.Isa.Halt ]

let same (a : Core.Prov_query.region_taint) (b : Core.Prov_query.region_taint) =
  a.rt_pid = b.rt_pid && a.rt_process = b.rt_process && a.rt_vaddr = b.rt_vaddr
  && a.rt_len = b.rt_len && a.rt_types = b.rt_types
  && Provenance.equal a.rt_sample b.rt_sample

let page_walk_equals_reference (order, cmds) =
  let k = Faros_os.Kernel.create () in
  let faros = Core.Faros_plugin.create k in
  let mmu = k.machine.mmu in
  List.iter
    (fun name -> Faros_os.Kernel.install_image k ~path:name (halt_image name))
    [ "a.exe"; "b.exe" ];
  let proc name = Option.get (Faros_os.Kstate.proc k (Faros_os.Kernel.spawn k name)) in
  let a = proc "a.exe" and b = proc "b.exe" in
  Faros_vm.Mmu.map mmu a.space ~vaddr:seq_base ~pages:(area_pages Seq);
  let frames = Array.init 4 (fun _ -> Faros_vm.Phys_mem.alloc_frame mmu.mem) in
  Faros_vm.Mmu.map_frames mmu a.space ~vaddr:scattered_base
    (List.map (Array.get frames) order);
  Faros_vm.Mmu.map_frames mmu b.space ~vaddr:shared_base [ frames.(2); frames.(0) ];
  let write (space : Faros_vm.Mmu.space) vaddr prov =
    Shadow.set_mem faros.engine.shadow
      (Faros_vm.Mmu.translate mmu ~asid:space.asid vaddr)
      prov
  in
  List.iter
    (fun c ->
      let space = if c.area = Shared then b.space else a.space in
      for i = c.off to min (c.off + c.len) (area_pages c.area * page) - 1 do
        write space (area_base c.area + i) provs.(c.prov)
      done)
    cmds;
  (* a shadow page materialized, then emptied: its live count is 0 *)
  for i = 0 to page - 1 do
    write a.space (seq_base + i) provs.(1);
    write a.space (seq_base + i) Provenance.empty
  done;
  (* tainted bytes on both sides of the unmapped gap *)
  write a.space (scattered_base - page - 1) provs.(1);
  write a.space scattered_base provs.(1);
  (* the stack's last byte next to a tainted kernel stub byte *)
  write a.space (kernel_base - 1) provs.(2);
  write a.space kernel_base provs.(3);
  List.for_all
    (fun p ->
      let walked = Core.Prov_query.regions_of_process faros p in
      let expected = reference faros p in
      List.length walked = List.length expected && List.for_all2 same walked expected)
    (Faros_os.Kstate.processes k)

let prop_page_walk =
  QCheck.Test.make ~name:"page walk = per-byte reference walk" ~count:100
    arb_layout page_walk_equals_reference

let () =
  Alcotest.run "pbt-regions"
    [ ("regions", [ QCheck_alcotest.to_alcotest prop_page_walk ]) ]

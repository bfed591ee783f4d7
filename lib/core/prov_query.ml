(* Post-analysis provenance queries.

   The report answers "was there an injection"; these helpers answer the
   analyst's follow-ups: where is tainted data sitting right now, in which
   processes, carrying which tag types — the "visibility into how
   information flows in a live system" the paper sells DIFT for. *)

type region_taint = {
  rt_pid : Faros_os.Types.pid;
  rt_process : string;
  rt_vaddr : int;  (* start of the contiguous tainted run *)
  rt_len : int;
  rt_types : Faros_dift.Tag.ty list;  (* union over the run *)
  rt_sample : Faros_dift.Provenance.t;  (* provenance of the first byte *)
}

let ty_name = function
  | Faros_dift.Tag.Ty_netflow -> "netflow"
  | Ty_process -> "process"
  | Ty_file -> "file"
  | Ty_export -> "export-table"

(* Walk one process's mapped user pages, clipped page by page at the
   kernel region (the stack ends exactly where the shared stubs begin, so
   [Mmu.mapped_ranges] can merge the two), and coalesce the shadow's
   same-id runs into contiguous tainted runs: a run joins the open one
   when it starts where that one ends (across a page boundary or an id
   change), and otherwise closes it.  Cost: one page-table and one shadow
   probe per mapped page, a slot scan of the shadow pages that carry
   taint, and one step per same-id run.  A run's sample provenance is
   resolved once, and its type union grows only when the interned id
   changes.  Shadow pages are frame-sized (4 KiB), so one frame's bytes
   are exactly one shadow page. *)
let regions_of_process (faros : Faros_plugin.t) (p : Faros_os.Process.t) =
  let shadow = faros.engine.shadow in
  let store = Faros_dift.Shadow.interner shadow in
  let page_size = Faros_vm.Mmu.page_size in
  let runs = ref [] in
  (* the open run: start, length, first byte's id, type union, last id *)
  let start = ref 0 and len = ref 0 and first = ref 0 in
  let types = ref [] and last = ref 0 in
  let flush () =
    if !len > 0 then
      runs :=
        {
          rt_pid = p.pid;
          rt_process = p.proc_name;
          rt_vaddr = !start;
          rt_len = !len;
          rt_types = !types;
          rt_sample = Faros_dift.Provenance.resolve store !first;
        }
        :: !runs
  in
  let add vaddr n id =
    if !len = 0 || vaddr <> !start + !len then begin
      flush ();
      start := vaddr;
      len := 0;
      first := id;
      types := [];
      last := 0
    end;
    len := !len + n;
    if id <> !last then begin
      last := id;
      types :=
        List.sort_uniq compare
          (Faros_dift.Provenance.distinct_types
             (Faros_dift.Provenance.resolve store id)
          @ !types)
    end
  in
  List.iter
    (fun (vaddr, size) ->
      let pages =
        (min (vaddr + size) Faros_os.Export_table.kernel_base - vaddr) / page_size
      in
      if pages > 0 then
        List.iteri
          (fun i pfn ->
            let base = vaddr + (i * page_size) in
            Faros_dift.Shadow.iter_runs shadow (pfn lsl Faros_vm.Mmu.page_shift)
              (fun off n id -> add (base + off) n id))
          (Faros_vm.Mmu.frames_of p.space ~vaddr ~pages))
    (Faros_vm.Mmu.mapped_ranges p.space);
  flush ();
  List.rev !runs

let tainted_regions (faros : Faros_plugin.t) =
  List.concat_map (regions_of_process faros) (Faros_os.Kstate.processes faros.kernel)

let totals regions =
  List.fold_left
    (fun (total, netflow) r ->
      ( total + r.rt_len,
        if List.mem Faros_dift.Tag.Ty_netflow r.rt_types then netflow + r.rt_len
        else netflow ))
    (0, 0) regions

let summary_by_process (faros : Faros_plugin.t) =
  List.map
    (fun (p : Faros_os.Process.t) ->
      let total, netflow = totals (regions_of_process faros p) in
      (p.proc_name, total, netflow))
    (Faros_os.Kstate.processes faros.kernel)

(* Provenance-aware `strings`: printable runs inside netflow-tainted
   memory, each with the provenance of its first byte.  The classic
   forensic tool, upgraded: not just "this string is in memory" but "this
   string came off that wire, through those processes". *)
type tainted_string = {
  ts_process : string;
  ts_vaddr : int;
  ts_text : string;
  ts_prov : Faros_dift.Provenance.t;
}

let printable c = Char.code c >= 0x20 && Char.code c < 0x7F

let min_len = 4

let strings (faros : Faros_plugin.t) =
  let mmu = faros.kernel.machine.mmu in
  let results = ref [] in
  List.iter
    (fun (r : region_taint) ->
      if List.mem Faros_dift.Tag.Ty_netflow r.rt_types then begin
        let p =
          Option.get (Faros_os.Kstate.proc faros.kernel r.rt_pid)
        in
        let asid = Faros_os.Process.asid p in
        let data =
          Bytes.to_string (Faros_vm.Mmu.read_bytes mmu ~asid r.rt_vaddr r.rt_len)
        in
        let flush start stop =
          if stop - start >= min_len then begin
            let paddr = Faros_vm.Mmu.translate mmu ~asid (r.rt_vaddr + start) in
            let prov = Faros_dift.Shadow.get_mem faros.engine.shadow paddr in
            if Faros_dift.Provenance.has_netflow prov then
              results :=
                {
                  ts_process = r.rt_process;
                  ts_vaddr = r.rt_vaddr + start;
                  ts_text = String.sub data start (stop - start);
                  ts_prov = prov;
                }
                :: !results
          end
        in
        let start = ref (-1) in
        String.iteri
          (fun idx c ->
            if printable c then (if !start < 0 then start := idx)
            else begin
              if !start >= 0 then flush !start idx;
              start := -1
            end)
          data;
        if !start >= 0 then flush !start (String.length data)
      end)
    (tainted_regions faros);
  List.rev !results

let pp_region ~(faros : Faros_plugin.t) ppf r =
  Fmt.pf ppf "%-20s 0x%08X +%-6d [%s]  %s" r.rt_process r.rt_vaddr r.rt_len
    (String.concat "," (List.map ty_name r.rt_types))
    (Report.render_provenance ~store:faros.engine.store
       ~name_of_asid:(Faros_plugin.name_of_asid faros.kernel)
       r.rt_sample)

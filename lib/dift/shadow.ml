(* Shadow state: provenance for guest memory, registers and flags.

   Shadow memory is keyed by *physical* address and is byte granular; it
   is a two-level page table: a directory from page number to 4 KiB pages,
   each page an int array of interned provenance ids (Prov_intern), with
   0 — the empty provenance — meaning "untracked".  Pages materialize on
   first taint; every page carries a count of its non-empty bytes, so the
   demand-driven fast path can ask "is anything on this page tainted?" in
   one hashtable probe, and a running global counter makes tainted_bytes
   O(1).  Shadow registers are per address space (one guest CPU per
   process) at whole-register granularity — a documented simplification
   over the paper's byte-granular memory.  Shadow flags feed the
   control-dependency policy.

   The [gen] counter increments on every observable shadow mutation: any
   byte's interned id changing (creation, clearing, or re-tagging alike),
   a register or the flags crossing empty/non-empty, [clear], and a
   control-dependency window opening (the engine bumps it explicitly).
   Mutations, not just creations, because the fast path caches more than
   emptiness: it caches the *fetch provenance* of converged code bytes,
   which goes stale when a byte is re-tagged or cleared, and a cached
   "run" verdict computed while a register was tainted must be revisited
   once the register is cleared or it pins hot blocks to the slow path
   forever.  Converged steady state writes the id a byte already has,
   which is not a mutation, so hot loops do not churn the counter. *)

let page_shift = 12
let page_size = 1 lsl page_shift  (* bytes per shadow page *)

type page = {
  data : int array;  (* interned ids, 0 = untracked *)
  mutable live : int;  (* non-empty bytes on this page *)
}

type t = {
  mem_dir : (int, page) Hashtbl.t;  (* page number -> shadow page *)
  mutable mem_tainted : int;  (* bytes with a non-empty provenance *)
  mutable gen : int;  (* bumped on every taint-creation event *)
  regs : (int, Provenance.t) Hashtbl.t;  (* asid * num_regs + reg *)
  flags : (int, Provenance.t) Hashtbl.t;  (* asid -> provenance *)
  sink : Faros_obs.Sink.t;  (* page-allocation trace events *)
  interner : Prov_intern.store;  (* the store the page ids resolve against *)
}

let create ?(sink = Faros_obs.Sink.null) () =
  {
    mem_dir = Hashtbl.create 64;
    mem_tainted = 0;
    gen = 0;
    regs = Hashtbl.create 64;
    flags = Hashtbl.create 8;
    sink;
    interner = Prov_intern.current_store ();
  }

let interner t = t.interner

let generation t = t.gen
let bump_generation t = t.gen <- t.gen + 1

let get_mem t paddr =
  match Hashtbl.find_opt t.mem_dir (paddr lsr page_shift) with
  | None -> Provenance.empty
  | Some page ->
    Prov_intern.resolve t.interner page.data.(paddr land (page_size - 1))

let page_for t pno =
  match Hashtbl.find_opt t.mem_dir pno with
  | Some page -> page
  | None ->
    let page = { data = Array.make page_size 0; live = 0 } in
    Hashtbl.replace t.mem_dir pno page;
    if Faros_obs.Sink.enabled t.sink then
      Faros_obs.Sink.trace_event t.sink ~cat:"shadow" ~name:"page_alloc"
        ~pid:0
        [ ("page", Int pno); ("base", Int (pno lsl page_shift)) ];
    page

(* Write one byte's id into a page, maintaining the per-page and global
   taint counters and the generation.  An empty write never materializes
   a page. *)
let set_slot t page off id =
  let old = page.data.(off) in
  if old <> id then begin
    t.gen <- t.gen + 1;
    page.data.(off) <- id;
    if old = 0 then begin
      page.live <- page.live + 1;
      t.mem_tainted <- t.mem_tainted + 1
    end
    else if id = 0 then begin
      page.live <- page.live - 1;
      t.mem_tainted <- t.mem_tainted - 1
    end
  end

let set_mem t paddr prov =
  let id = Prov_intern.id prov in
  let pno = paddr lsr page_shift and off = paddr land (page_size - 1) in
  if id = 0 then (
    match Hashtbl.find_opt t.mem_dir pno with
    | None -> ()
    | Some page -> set_slot t page off 0)
  else set_slot t (page_for t pno) off id

let reg_key asid reg = (asid * Faros_vm.Isa.num_regs) + reg

let get_reg t ~asid reg =
  match Hashtbl.find_opt t.regs (reg_key asid reg) with
  | Some p -> p
  | None -> Provenance.empty

let set_reg t ~asid reg prov =
  let key = reg_key asid reg in
  if Provenance.is_empty prov then begin
    if Hashtbl.mem t.regs key then begin
      t.gen <- t.gen + 1;
      Hashtbl.remove t.regs key
    end
  end
  else begin
    if not (Hashtbl.mem t.regs key) then t.gen <- t.gen + 1;
    Hashtbl.replace t.regs key prov
  end

let get_flags t ~asid =
  match Hashtbl.find_opt t.flags asid with Some p -> p | None -> Provenance.empty

let set_flags t ~asid prov =
  if Provenance.is_empty prov then begin
    if Hashtbl.mem t.flags asid then begin
      t.gen <- t.gen + 1;
      Hashtbl.remove t.flags asid
    end
  end
  else begin
    if not (Hashtbl.mem t.flags asid) then t.gen <- t.gen + 1;
    Hashtbl.replace t.flags asid prov
  end

(* Union of the provenance of [width] bytes starting at [paddr].  One
   directory lookup per page touched (accesses are small; at most two
   pages), then straight int-array reads; absent pages contribute
   nothing, and the per-id union is memoized by Prov_intern. *)
let get_mem_range t paddr width =
  let acc = ref Provenance.empty in
  let i = ref 0 in
  while !i < width do
    let a = paddr + !i in
    let pno = a lsr page_shift and off = a land (page_size - 1) in
    (* bytes of this access that fall inside this page *)
    let chunk = min (width - !i) (page_size - off) in
    (match Hashtbl.find_opt t.mem_dir pno with
    | None -> ()
    | Some page ->
      if page.live > 0 then
        for j = off to off + chunk - 1 do
          let id = page.data.(j) in
          if id <> 0 then
            acc := Provenance.union !acc (Prov_intern.resolve t.interner id)
        done);
    i := !i + chunk
  done;
  !acc

let set_mem_range t paddr width prov =
  let id = Prov_intern.id prov in
  let i = ref 0 in
  while !i < width do
    let a = paddr + !i in
    let pno = a lsr page_shift and off = a land (page_size - 1) in
    let chunk = min (width - !i) (page_size - off) in
    (match (Hashtbl.find_opt t.mem_dir pno, id) with
    | None, 0 -> ()  (* clearing an untracked page: nothing to do *)
    | None, _ ->
      (* Bulk fill of a just-materialized page: every slot was 0, so the
         counters move by exactly [chunk].  This fast path is only legal
         because [page_for] cannot return a pre-existing page here — the
         directory probe above came back empty. *)
      let page = page_for t pno in
      Array.fill page.data off chunk id;
      t.gen <- t.gen + 1;
      page.live <- page.live + chunk;
      t.mem_tainted <- t.mem_tainted + chunk
    | Some page, 0 when page.live = 0 -> ()  (* clearing a clean page *)
    | Some page, _ ->
      for j = off to off + chunk - 1 do
        set_slot t page j id
      done);
    i := !i + chunk
  done

let tainted_bytes t = t.mem_tainted
let tainted_regs t = Hashtbl.length t.regs
let pages t = Hashtbl.length t.mem_dir

let page_tainted_bytes t paddr =
  match Hashtbl.find_opt t.mem_dir (paddr lsr page_shift) with
  | None -> 0
  | Some page -> page.live

let live_page t paddr =
  match Hashtbl.find_opt t.mem_dir (paddr lsr page_shift) with
  | Some page when page.live > 0 -> Some (Array.get page.data)
  | _ -> None

let page_tainted t paddr = page_tainted_bytes t paddr > 0

let byte_tainted t paddr =
  match Hashtbl.find_opt t.mem_dir (paddr lsr page_shift) with
  | None -> false
  | Some page -> page.live > 0 && page.data.(paddr land (page_size - 1)) <> 0

(* Any taint under [width] bytes at [paddr]?  One directory probe per
   page touched and a short int-array scan only on live pages — the
   byte-exact refinement behind the fast path's access checks (accesses
   are at most 8 bytes, so at most two probes). *)
let range_tainted t paddr width =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < width do
    let a = paddr + !i in
    let pno = a lsr page_shift and off = a land (page_size - 1) in
    let chunk = min (width - !i) (page_size - off) in
    (match Hashtbl.find_opt t.mem_dir pno with
    | None -> ()
    | Some page ->
      if page.live > 0 then begin
        let j = ref off in
        while (not !found) && !j < off + chunk do
          if page.data.(!j) <> 0 then found := true;
          incr j
        done
      end);
    i := !i + chunk
  done;
  !found

let iter_mem t f =
  Hashtbl.iter
    (fun pno page ->
      if page.live > 0 then begin
        let base = pno lsl page_shift in
        Array.iteri
          (fun off id ->
            if id <> 0 then f (base + off) (Prov_intern.resolve t.interner id))
          page.data
      end)
    t.mem_dir

let clear t =
  (* Reset, not clear: campaign jobs reuse shadows across samples, so
     materialized pages must not stay resident and the tables must give
     their capacity back — the regression test pins the empty-state
     baseline after taint+clear. *)
  Hashtbl.reset t.mem_dir;
  t.mem_tainted <- 0;
  t.gen <- t.gen + 1;
  Hashtbl.reset t.regs;
  Hashtbl.reset t.flags

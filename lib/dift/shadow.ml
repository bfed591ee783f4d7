(* Shadow state: provenance for guest memory, registers and flags.

   Shadow memory is keyed by *physical* address and is byte granular; it
   is a two-level page table: a directory from page number to 4 KiB pages.
   A page is one 16 KiB [Bytes.t] with a 4-byte little-endian slot per
   byte holding its interned provenance id (Provenance.id), 0 — the empty
   provenance — meaning "untracked".  The GC does not scan [Bytes], so a
   live page costs the major GC nothing to mark.  Shadow page numbers
   are Phys_mem frame numbers, which are dense from 0, so the directory
   is a growable array indexed by page number, its empty slots holding
   the [no_page] sentinel.  Pages materialize on first taint; every page
   carries a count of its non-empty bytes, so the demand-driven fast path
   can ask "is anything on this page tainted?" in one array index, and a
   running global counter makes tainted_bytes O(1).  Shadow registers are
   per address space (one guest CPU per process) at whole-register
   granularity — a documented simplification over the paper's
   byte-granular memory.  Shadow flags feed the control-dependency
   policy.

   The [gen] counter increments on every observable shadow mutation: any
   byte's interned id changing (creation, clearing, or re-tagging alike),
   a register or the flags crossing empty/non-empty, and a
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

(* Bytes per slot.  [Int32.to_int] sign-extends, so ids must fit in 31
   bits; they count a store's interned cells, and 2^31 cells would need
   over 200 GB of nodes and memo-table entries, so nothing checks. *)
let slot_bytes = 4

type page = {
  data : Bytes.t;  (* [page_size] slots of interned ids, 0 = untracked *)
  mutable live : int;  (* non-empty bytes on this page *)
}

(* The id in slot [off]: one bounds-checked 32-bit load. *)
let[@inline] id_at data off =
  Int32.to_int (Bytes.get_int32_le data (off * slot_bytes))

let[@inline] set_id data off id =
  Bytes.set_int32_le data (off * slot_bytes) (Int32.of_int id)

(* The directory's empty slot.  Its [live] stays 0 and no path indexes its
   [data]: reads test [live] first, and writes go through [page_for],
   which puts a fresh page in its place. *)
let no_page = { data = Bytes.empty; live = 0 }

type t = {
  mutable mem_dir : page array;  (* page number -> shadow page, or [no_page] *)
  mutable mem_pages : int;  (* pages materialized *)
  mutable mem_tainted : int;  (* bytes with a non-empty provenance *)
  mutable gen : int;  (* bumped on every taint-creation event *)
  regs : (int, Provenance.t) Hashtbl.t;  (* asid * num_regs + reg *)
  flags : (int, Provenance.t) Hashtbl.t;  (* asid -> provenance *)
  sink : Faros_obs.Sink.t;  (* page-allocation trace events *)
  interner : Provenance.store;  (* the store the page ids resolve against *)
}

let create ?(sink = Faros_obs.Sink.null) () =
  {
    mem_dir = [||];
    mem_pages = 0;
    mem_tainted = 0;
    gen = 0;
    regs = Hashtbl.create 64;
    flags = Hashtbl.create 8;
    sink;
    interner = Provenance.current_store ();
  }

let interner t = t.interner

let generation t = t.gen
let bump_generation t = t.gen <- t.gen + 1

(* The page holding [paddr], or [no_page]: one bounds check and one array
   read ([lsr] keeps the index non-negative). *)
let find t paddr =
  let pno = paddr lsr page_shift in
  if pno < Array.length t.mem_dir then Array.unsafe_get t.mem_dir pno else no_page

let get_mem t paddr =
  let page = find t paddr in
  if page.live = 0 then Provenance.empty
  else
    let off = paddr land (page_size - 1) in
    Provenance.resolve t.interner (id_at page.data off)

let page_for t pno =
  let len = Array.length t.mem_dir in
  if pno < len && t.mem_dir.(pno) != no_page then t.mem_dir.(pno)
  else begin
    if pno >= len then begin
      let cap = ref (max 64 len) in
      while !cap <= pno do
        cap := 2 * !cap
      done;
      let grown = Array.make !cap no_page in
      Array.blit t.mem_dir 0 grown 0 len;
      t.mem_dir <- grown
    end;
    let page =
      { data = Bytes.make (page_size * slot_bytes) '\000'; live = 0 }
    in
    t.mem_dir.(pno) <- page;
    t.mem_pages <- t.mem_pages + 1;
    if Faros_obs.Sink.enabled t.sink then
      Faros_obs.Sink.trace_event t.sink ~cat:"shadow" ~name:"page_alloc"
        ~pid:0
        [ ("page", Int pno); ("base", Int (pno lsl page_shift)) ];
    page
  end

(* Write one byte's id into a page, maintaining the per-page and global
   taint counters and the generation.  An empty write never materializes
   a page. *)
let set_slot t page off id =
  let old = id_at page.data off in
  if old <> id then begin
    t.gen <- t.gen + 1;
    set_id page.data off id;
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
  let id = Provenance.id prov in
  let off = paddr land (page_size - 1) in
  if id = 0 then begin
    let page = find t paddr in
    if page.live > 0 then set_slot t page off 0
  end
  else set_slot t (page_for t (paddr lsr page_shift)) off id

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
   directory index per page touched (accesses are small; at most two
   pages), then straight slot reads; absent pages contribute
   nothing, and the per-id union is memoized by Provenance. *)
let get_mem_range t paddr width =
  let acc = ref Provenance.empty in
  let i = ref 0 in
  while !i < width do
    let a = paddr + !i in
    let off = a land (page_size - 1) in
    (* bytes of this access that fall inside this page *)
    let chunk = min (width - !i) (page_size - off) in
    let page = find t a in
    if page.live > 0 then
      for j = off to off + chunk - 1 do
        let id = id_at page.data j in
        if id <> 0 then
          acc := Provenance.union !acc (Provenance.resolve t.interner id)
      done;
    i := !i + chunk
  done;
  !acc

let set_mem_range t paddr width prov =
  let id = Provenance.id prov in
  let i = ref 0 in
  while !i < width do
    let a = paddr + !i in
    let off = a land (page_size - 1) in
    let chunk = min (width - !i) (page_size - off) in
    let page = find t a in
    (* clearing an untracked or a clean page has nothing to do *)
    if page != no_page then begin
      if id <> 0 || page.live > 0 then
        for j = off to off + chunk - 1 do
          set_slot t page j id
        done
    end
    else if id <> 0 then begin
      (* Bulk fill of a just-materialized page: every slot was 0, so the
         counters move by exactly [chunk].  This fast path is only legal
         because [page_for] cannot return a pre-existing page here — the
         directory slot above held the sentinel. *)
      let page = page_for t (a lsr page_shift) in
      for j = off to off + chunk - 1 do
        set_id page.data j id
      done;
      t.gen <- t.gen + 1;
      page.live <- page.live + chunk;
      t.mem_tainted <- t.mem_tainted + chunk
    end;
    i := !i + chunk
  done

let tainted_bytes t = t.mem_tainted
let tainted_regs t = Hashtbl.length t.regs
let pages t = t.mem_pages

let page_tainted_bytes t paddr = (find t paddr).live

let live_page t paddr =
  let page = find t paddr in
  if page.live > 0 then Some (id_at page.data) else None

let page_tainted t paddr = page_tainted_bytes t paddr > 0

let byte_tainted t paddr =
  let page = find t paddr in
  page.live > 0 && id_at page.data (paddr land (page_size - 1)) <> 0

(* Any taint under [width] bytes at [paddr]?  One directory index per
   page touched and a short slot scan only on live pages — the
   byte-exact refinement behind the fast path's access checks (accesses
   are at most 8 bytes, so at most two probes). *)
let range_tainted t paddr width =
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < width do
    let a = paddr + !i in
    let off = a land (page_size - 1) in
    let chunk = min (width - !i) (page_size - off) in
    let page = find t a in
    if page.live > 0 then begin
      let j = ref off in
      while (not !found) && !j < off + chunk do
        if id_at page.data !j <> 0 then found := true;
        incr j
      done
    end;
    i := !i + chunk
  done;
  !found

let iter_mem t f =
  Array.iteri
    (fun pno page ->
      if page.live > 0 then begin
        let base = pno lsl page_shift in
        for off = 0 to page_size - 1 do
          let id = id_at page.data off in
          if id <> 0 then f (base + off) (Provenance.resolve t.interner id)
        done
      end)
    t.mem_dir

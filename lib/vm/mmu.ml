(* MMU: virtual address spaces over {!Phys_mem}.

   Each guest process owns one address space; its identifier plays the role
   x86's CR3 plays in the paper — the architecture-level identity of a
   process, and the value FAROS uses for process tags.  The kernel region is
   a set of frames mapped (shared) into every address space, which is what
   lets export-table tags, attached to physical bytes, be visible from any
   process.

   Two concerns beyond plain translation live here because every guest
   memory access funnels through this module:

   - a direct-mapped software TLB in front of the space/page hashtable
     pair, so the per-instruction fetch/load/store path costs one array
     probe instead of two hashtable lookups;
   - self-modifying-code tracking for the translation-block cache: frames
     holding cached code are marked, [write_u8] and [write_bytes] report
     the physical byte range they wrote on such a frame, and every mapping
     change (map / map_frames / unmap) reports the affected address space.
     The TB cache subscribes to both via {!set_smc_hooks}; the mark is
     only the one-byte filter, and the cache decides from the range which
     blocks' code the store overwrote. *)

type space = {
  asid : int;  (* the "CR3" value *)
  mutable space_name : string;
  table : (int, int) Hashtbl.t;  (* vpn -> pfn *)
}

(* Direct-mapped TLB.  Tags pack (asid, vpn); vaddrs are 32-bit so vpn
   fits in 20 bits.  An empty slot holds tag -1, which no real (asid, vpn)
   produces.  256 entries: each array is then a minor-heap block (a
   block over 256 words goes straight to the major heap, and a campaign
   job builds two machines), and the flush on every mapping change is
   short; the corpus's hit rates barely move from 1,024 entries. *)
let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits

type t = {
  mem : Phys_mem.t;
  spaces : (int, space) Hashtbl.t;
  mutable next_asid : int;
  tlb_tags : int array;  (* (asid lsl 20) lor vpn, or -1 *)
  tlb_pfns : int array;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable code_pages : Bytes.t;  (* pfn -> '\001' when cached code lives there *)
  mutable on_code_write : int -> int -> unit;  (* paddr, len of a store on a code frame *)
  mutable on_mapping_change : int -> unit;  (* asid whose mappings changed *)
}

exception Page_fault of { asid : int; vaddr : int }

let page_size = Phys_mem.page_size
let page_shift = Phys_mem.page_shift

let create mem =
  {
    mem;
    spaces = Hashtbl.create 16;
    next_asid = 1;
    tlb_tags = Array.make tlb_size (-1);
    tlb_pfns = Array.make tlb_size 0;
    tlb_hits = 0;
    tlb_misses = 0;
    code_pages = Bytes.make 256 '\000';
    on_code_write = (fun _ _ -> ());
    on_mapping_change = ignore;
  }

let set_smc_hooks t ~on_code_write ~on_mapping_change =
  t.on_code_write <- on_code_write;
  t.on_mapping_change <- on_mapping_change

(* -- TLB ----------------------------------------------------------------- *)

let flush_tlb t = Array.fill t.tlb_tags 0 tlb_size (-1)

let tlb_stats t = (t.tlb_hits, t.tlb_misses)

(* Any mapping mutation flushes the whole TLB (they are orders of magnitude
   rarer than translations) and reports the space to the TB cache. *)
let mapping_changed t asid =
  flush_tlb t;
  t.on_mapping_change asid

(* -- code-page marks ----------------------------------------------------- *)

let mark_code_page t pfn =
  let len = Bytes.length t.code_pages in
  if pfn >= len then begin
    let grown = Bytes.make (max (2 * len) (pfn + 1)) '\000' in
    Bytes.blit t.code_pages 0 grown 0 len;
    t.code_pages <- grown
  end;
  Bytes.unsafe_set t.code_pages pfn '\001'

let clear_code_page t pfn =
  if pfn < Bytes.length t.code_pages then Bytes.unsafe_set t.code_pages pfn '\000'

(* -- spaces -------------------------------------------------------------- *)

let create_space t ~name =
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  let s = { asid; space_name = name; table = Hashtbl.create 64 } in
  Hashtbl.replace t.spaces asid s;
  s

let find_space t asid =
  match Hashtbl.find_opt t.spaces asid with
  | Some s -> s
  | None -> raise (Page_fault { asid; vaddr = -1 })

let space_name t asid =
  match Hashtbl.find_opt t.spaces asid with
  | Some s -> s.space_name
  | None -> Printf.sprintf "asid%d" asid

(* Map [pages] fresh zero frames at [vaddr] (page aligned). *)
let map t space ~vaddr ~pages =
  let vpn0 = vaddr lsr page_shift in
  for i = 0 to pages - 1 do
    Hashtbl.replace space.table (vpn0 + i) (Phys_mem.alloc_frame t.mem)
  done;
  mapping_changed t space.asid

(* Map existing frames (sharing) at [vaddr]. *)
let map_frames t space ~vaddr pfns =
  let vpn0 = vaddr lsr page_shift in
  List.iteri (fun i pfn -> Hashtbl.replace space.table (vpn0 + i) pfn) pfns;
  mapping_changed t space.asid

let unmap t space ~vaddr ~pages =
  let vpn0 = vaddr lsr page_shift in
  for i = 0 to pages - 1 do
    Hashtbl.remove space.table (vpn0 + i)
  done;
  mapping_changed t space.asid

let frames_of space ~vaddr ~pages =
  let vpn0 = vaddr lsr page_shift in
  List.init pages (fun i ->
      match Hashtbl.find_opt space.table (vpn0 + i) with
      | Some pfn -> pfn
      | None -> raise (Page_fault { asid = space.asid; vaddr = (vpn0 + i) lsl page_shift }))

let is_mapped space ~vaddr = Hashtbl.mem space.table (vaddr lsr page_shift)

let unmapped space ~vaddr ~pages =
  let vpn = vaddr lsr page_shift in
  let rec free i =
    i = pages || ((not (Hashtbl.mem space.table (vpn + i))) && free (i + 1))
  in
  free 0

let mapped_ranges space =
  let vpns = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) space.table [] in
  let vpns = List.sort compare vpns in
  let rec group acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some r -> r :: acc)
    | vpn :: rest -> (
      match cur with
      | Some (lo, hi) when vpn = hi + 1 -> group acc (Some (lo, vpn)) rest
      | Some r -> group (r :: acc) (Some (vpn, vpn)) rest
      | None -> group acc (Some (vpn, vpn)) rest)
  in
  group [] None vpns
  |> List.map (fun (lo, hi) -> (lo lsl page_shift, (hi - lo + 1) * page_size))

(* Hot path: one tag compare on a TLB hit; the hashtable pair only on a
   miss, which then fills the slot. *)
let translate t ~asid vaddr =
  let vpn = vaddr lsr page_shift in
  let idx = (vpn lxor (asid * 0x9E37)) land (tlb_size - 1) in
  let tag = (asid lsl 20) lor vpn in
  if Array.unsafe_get t.tlb_tags idx = tag then begin
    t.tlb_hits <- t.tlb_hits + 1;
    (Array.unsafe_get t.tlb_pfns idx lsl page_shift) lor (vaddr land (page_size - 1))
  end
  else begin
    t.tlb_misses <- t.tlb_misses + 1;
    let space = find_space t asid in
    match Hashtbl.find_opt space.table vpn with
    | Some pfn ->
      Array.unsafe_set t.tlb_tags idx tag;
      Array.unsafe_set t.tlb_pfns idx pfn;
      (pfn lsl page_shift) lor (vaddr land (page_size - 1))
    | None -> raise (Page_fault { asid; vaddr })
  end

let read_u8 t ~asid vaddr = Phys_mem.read_u8 t.mem (translate t ~asid vaddr)

(* SMC check: a store into a frame holding cached code must reach the TB
   cache.  One bounds check plus one byte load when the frame is clean. *)
let code_frame t pfn =
  pfn < Bytes.length t.code_pages && Bytes.unsafe_get t.code_pages pfn <> '\000'

let write_u8 t ~asid vaddr v =
  let paddr = translate t ~asid vaddr in
  Phys_mem.write_u8 t.mem paddr v;
  if code_frame t (paddr lsr page_shift) then t.on_code_write paddr 1

(* Multi-byte accesses translate per byte so they may legally span pages. *)
let read ~width t ~asid vaddr =
  let rec go i acc =
    if i >= width then acc
    else go (i + 1) (acc lor (read_u8 t ~asid (vaddr + i) lsl (8 * i)))
  in
  go 0 0

let write ~width t ~asid vaddr v =
  for i = 0 to width - 1 do
    write_u8 t ~asid (vaddr + i) ((v lsr (8 * i)) land 0xFF)
  done

(* Host copies walk a range one page chunk at a time: [f off paddr n] for
   the [n] bytes at range offset [off], which start at [paddr].  One
   translation per chunk; a fault on a later page leaves the earlier
   chunks done, the same prefix a byte-by-byte copy would leave. *)
let iter_chunks t ~asid vaddr len f =
  let off = ref 0 in
  while !off < len do
    let va = vaddr + !off in
    let n = min (len - !off) (page_size - (va land (page_size - 1))) in
    f !off (translate t ~asid va) n;
    off := !off + n
  done

(* Reads copy out of a frame without giving it bytes of its own: a page
   nobody wrote reads from the shared zero page. *)
let read_bytes t ~asid vaddr len =
  let b = Bytes.create len in
  iter_chunks t ~asid vaddr len (fun off paddr n -> Phys_mem.blit_out t.mem paddr b off n);
  b

(* Writes go through [Phys_mem.frame], so a chunk gives its frame its own
   bytes.  A chunk that lands on a code frame is reported as one range,
   which stands for one report per byte: the TB cache retires the blocks
   whose code bytes the range overlaps. *)
let write_bytes t ~asid vaddr b =
  iter_chunks t ~asid vaddr (Bytes.length b) (fun off paddr n ->
      let pfn = paddr lsr page_shift in
      Bytes.blit b off (Phys_mem.frame t.mem pfn) (paddr land (page_size - 1)) n;
      if code_frame t pfn then t.on_code_write paddr n)

let extents t ~asid vaddr len =
  let acc = ref [] in
  iter_chunks t ~asid vaddr len (fun _ paddr n ->
      match !acc with
      | { Extent.paddr = p; len = l } :: rest when p + l = paddr ->
        acc := { Extent.paddr = p; len = l + n } :: rest
      | es -> acc := { Extent.paddr; len = n } :: es);
  List.rev !acc

let phys_range_array t ~asid vaddr len =
  Array.init len (fun i -> translate t ~asid (vaddr + i))

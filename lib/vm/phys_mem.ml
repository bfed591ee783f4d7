(* Physical memory: a dense, growable store of 4 KiB demand-zero frames.

   Frame numbers are handed out densely from 0, so the store is an array
   indexed by frame number.  A frame costs one array slot until it is
   written: until then the slot holds [zero], one page shared by every
   store and every domain, which nothing ever writes — [frame], the only
   accessor that hands out frame bytes, swaps it for the frame's own
   4 KiB first.  Reads and [blit_out] read whichever page the slot holds,
   so they never materialize a frame.

   Shadow (taint) state is kept by the DIFT library keyed on physical
   addresses, so frame identity is the ground truth that lets taint
   survive cross-address-space sharing (the kernel's export-table region
   is one set of frames mapped everywhere). *)

let page_size = 4096
let page_shift = 12

(* What a frame nobody has written reads as.  Never written. *)
let zero = Bytes.make page_size '\000'

type t = {
  mutable frames : Bytes.t array;  (* pfn -> own bytes, or [zero] *)
  mutable next_pfn : int;  (* frames handed out: valid pfns are below it *)
  mutable resident : int;  (* frames holding their own bytes *)
}

exception Bad_frame of int

let create () = { frames = Array.make 128 zero; next_pfn = 0; resident = 0 }

let alloc_frame t =
  let pfn = t.next_pfn in
  let cap = Array.length t.frames in
  if pfn = cap then begin
    let grown = Array.make (2 * cap) zero in
    Array.blit t.frames 0 grown 0 cap;
    t.frames <- grown
  end;
  t.next_pfn <- pfn + 1;
  pfn

(* The page a read of [pfn] sees: its own bytes or [zero]. *)
let peek t pfn =
  if pfn < 0 || pfn >= t.next_pfn then raise (Bad_frame pfn);
  Array.unsafe_get t.frames pfn

let frame t pfn =
  let b = peek t pfn in
  if b != zero then b
  else begin
    let own = Bytes.make page_size '\000' in
    Array.unsafe_set t.frames pfn own;
    t.resident <- t.resident + 1;
    own
  end

let frame_count t = t.next_pfn
let resident_frames t = t.resident

(* Physical addresses are [pfn * page_size + offset]. *)
let read_u8 t paddr =
  Char.code (Bytes.unsafe_get (peek t (paddr lsr page_shift)) (paddr land (page_size - 1)))

let write_u8 t paddr v =
  Bytes.unsafe_set
    (frame t (paddr lsr page_shift))
    (paddr land (page_size - 1))
    (Char.unsafe_chr (v land 0xFF))

let blit_out t paddr dst off len =
  Bytes.blit (peek t (paddr lsr page_shift)) (paddr land (page_size - 1)) dst off len

let read ~width t paddr =
  let rec go i acc =
    if i >= width then acc else go (i + 1) (acc lor (read_u8 t (paddr + i) lsl (8 * i)))
  in
  go 0 0

let write ~width t paddr v =
  for i = 0 to width - 1 do
    write_u8 t (paddr + i) ((v lsr (8 * i)) land 0xFF)
  done

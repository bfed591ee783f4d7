(* Physical extents: a guest buffer as runs of contiguous physical bytes.

   A buffer that is contiguous in a virtual address space is scattered over
   frames; {!Mmu.extents} resolves it with one translation per page and
   merges chunks whose frames happen to be physically adjacent.  Kernel
   events carry these lists so a host-side copy costs one entry per page,
   not one address per byte. *)

type t = { paddr : int; len : int }

let total es = List.fold_left (fun acc e -> acc + e.len) 0 es

let iter f es =
  List.iter
    (fun e ->
      for i = 0 to e.len - 1 do
        f (e.paddr + i)
      done)
    es

(* Lockstep over two lists of equal total length: the [n]th byte of [src]
   with the [n]th byte of [dst], in order. *)
let rec iter2 f src dst =
  match (src, dst) with
  | s :: src', d :: dst' ->
    let n = min s.len d.len in
    for i = 0 to n - 1 do
      f (s.paddr + i) (d.paddr + i)
    done;
    let rest e l = if n = e.len then l else { paddr = e.paddr + n; len = e.len - n } :: l in
    iter2 f (rest s src') (rest d dst')
  | [], _ | _, [] -> ()

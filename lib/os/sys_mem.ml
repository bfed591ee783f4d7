(* Virtual-memory syscalls: allocation, cross-process copies, unmapping.

   [write_virtual_memory] is the injection primitive; the kernel performs
   the copy host-side and reports source and destination physical extents
   so the DIFT engine can apply per-byte copy propagation across address
   spaces — the step that carries netflow provenance from the injecting
   client into the victim. *)

let err = -1 land Faros_vm.Word.mask
let max_copy = 1 lsl 20
let page_size = Faros_vm.Phys_mem.page_size

let with_target (k : Kstate.t) (p : Process.t) pid f =
  let target_pid = if pid = 0 then p.pid else pid in
  match Kstate.proc k target_pid with Some t -> f t | None -> err

(* r1 = pid (0 = self), r2 = size in bytes.  Returns the new region base,
   or -1 when the region would overlap a mapping or reach the stack. *)
let allocate (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      let size = args.(1) in
      let pages = (size + page_size - 1) / page_size in
      let vaddr = t.heap_next in
      if size <= 0 || size > max_copy then err
      else if vaddr + (pages * page_size) > Process.stack_base
              || not (Faros_vm.Mmu.unmapped t.space ~vaddr ~pages)
      then err
      else begin
        Faros_vm.Mmu.map k.machine.mmu t.space ~vaddr ~pages;
        (* Leave a guard page between allocations. *)
        t.heap_next <- vaddr + ((pages + 1) * page_size);
        Kstate.emit k (Os_event.Mem_alloc { by = p.pid; in_pid = t.pid; vaddr; pages });
        vaddr
      end)

(* r1 = pid, r2 = dst vaddr (target), r3 = src vaddr (caller), r4 = len *)
let write_virtual_memory (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      let len = args.(3) in
      if len <= 0 || len > max_copy then err
      else
        match
          let data = Kstate.read_guest_bytes k p args.(2) len in
          let src = Kstate.guest_extents k p args.(2) len in
          Kstate.write_guest_bytes k t args.(1) data;
          (src, Kstate.guest_extents k t args.(1) len)
        with
        | src, dst ->
          Kstate.emit k
            (Os_event.Mem_copy { by = p.pid; src_pid = p.pid; dst_pid = t.pid; src; dst });
          len
        | exception Faros_vm.Mmu.Page_fault _ -> err)

(* r1 = pid, r2 = src vaddr (target), r3 = dst vaddr (caller), r4 = len *)
let read_virtual_memory (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      let len = args.(3) in
      if len <= 0 || len > max_copy then err
      else
        match
          let data = Kstate.read_guest_bytes k t args.(1) len in
          let src = Kstate.guest_extents k t args.(1) len in
          Kstate.write_guest_bytes k p args.(2) data;
          (src, Kstate.guest_extents k p args.(2) len)
        with
        | src, dst ->
          Kstate.emit k
            (Os_event.Mem_copy { by = p.pid; src_pid = t.pid; dst_pid = p.pid; src; dst });
          len
        | exception Faros_vm.Mmu.Page_fault _ -> err)

(* r1 = pid, r2 = vaddr, r3 = size in bytes.  The hollowing step: unmap the
   benign image from the suspended child. *)
let unmap_view (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      let vaddr = args.(1) land lnot (page_size - 1) in
      let pages = (args.(2) + page_size - 1) / page_size in
      if pages <= 0 then err
      else begin
        Faros_vm.Mmu.unmap k.machine.mmu t.space ~vaddr ~pages;
        Kstate.emit k (Os_event.Proc_unmapped { pid = t.pid; by = p.pid; vaddr; pages });
        0
      end)

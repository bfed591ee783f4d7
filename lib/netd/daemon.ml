(* Guest server daemons, as MiniPE images.

   Three server shapes, all built from the same raw-syscall vocabulary
   (socket/bind/listen/accept/poll/recv plus NtYieldExecution so waiting
   never busy-spins through the tick budget):

   - listener + spawned workers: the classic daemon.  The listener polls
     its listening socket, accepts, and hands each accepted connection to
     a freshly spawned worker process (the connection handle is duplicated
     into the child via NtCreateProcess r4 and arrives in the child's r1).
     Per-connection address spaces are what make whodunit sharp: a
     worker's taint cone contains exactly its own flow.

   - mux: one process serving many connections round-robin into per-slot
     buffers — the shape that stresses per-flow tag separation inside a
     single address space.

   - stager: accepts [stages] sequential connections and concatenates
     everything they deliver into one buffer, then allocates, copies and
     jumps — a C2 payload reassembled across flows.

   The worker image's "vulnerability" is deliberate and mirrors the
   paper's reflective loader: if a request starts with {!exec_magic}, the
   worker copies the rest of it into fresh memory via
   NtWriteVirtualMemory-to-self and jumps to it.  Everything else is
   echoed back — so one guilty request among hundreds of benign ones
   produces exactly one flagged worker. *)

open Faros_vm
open Faros_os

let i x = Asm.I x
let lbl s = Asm.Label s
let movi r v = i (Isa.Mov_ri (r, v))
let movr a b = i (Isa.Mov_rr (a, b))
let addi r v = i (Isa.Add_ri (r, v))
let halt = i Isa.Halt
let syscall no = [ movi Isa.r0 no; i Isa.Syscall ]

(* A request starting with this little-endian u32 asks the vulnerable
   worker to execute the rest of the request body. *)
let exec_magic = 0x45584543

let default_port = 8080

(* socket -> r7, bind [default_port], listen. *)
let server_prologue =
  List.concat
    [
      [ lbl "start" ];
      syscall Syscall.sys_socket;
      [ movr Isa.r7 Isa.r0 ];
      [ movr Isa.r1 Isa.r7; movi Isa.r2 default_port ];
      syscall Syscall.sys_bind;
      [ movr Isa.r1 Isa.r7 ];
      syscall Syscall.sys_listen;
    ]

(* -- listener + workers --------------------------------------------------- *)

(* Accept [expected] connections, spawning a [worker_path] process per
   connection; poll/yield while idle.  r7 = listening socket, r6 = served
   count, r5 = accepted handle. *)
let listener_image ~expected ~worker_path () =
  let items =
    List.concat
      [
        server_prologue;
        [ movi Isa.r6 0; lbl "loop" ];
        [ i (Isa.Cmp_ri (Isa.r6, expected)); Asm.Jge_l "done" ];
        [ movr Isa.r1 Isa.r7 ];
        syscall Syscall.sys_poll;
        [ i (Isa.Cmp_ri (Isa.r0, 0)); Asm.Jnz_l "ready" ];
        syscall Syscall.nt_yield_execution;
        [ Asm.Jmp_l "loop" ];
        [ lbl "ready"; movr Isa.r1 Isa.r7 ];
        syscall Syscall.sys_accept;
        [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jz_l "loop"; movr Isa.r5 Isa.r0 ];
        [
          Asm.Mov_label (Isa.r1, "wpath");
          movi Isa.r2 (String.length worker_path);
          movi Isa.r3 0;
          movr Isa.r4 Isa.r5;
        ];
        syscall Syscall.nt_create_process;
        [ addi Isa.r6 1; Asm.Jmp_l "loop" ];
        [ lbl "done"; halt ];
        [ Asm.Align 4; lbl "wpath"; Asm.Bytes worker_path ];
      ]
  in
  Pe.of_program ~name:"netd.exe" ~base:Process.image_base items

let worker_buf_cap = 4096
let worker_chunk = 512

(* Connection worker: r1 = inherited connection handle.  Drains the
   stream to EOF into an image buffer, then either echoes it back
   (benign) or — when [vulnerable] and the request starts with
   {!exec_magic} — self-injects the request body and jumps to it,
   mirroring the paper's reflective loader tail. *)
let worker_image ?(close_conn = false) ~vulnerable () =
  let tail =
    if vulnerable then
      List.concat
        [
          (* magic-prefixed request? *)
          [ i (Isa.Cmp_ri (Isa.r6, 4)); Asm.Jle_l "echo" ];
          [
            Asm.Mov_label (Isa.r2, "buf");
            i (Isa.Load (4, Isa.r5, Isa.based Isa.r2));
            i (Isa.Cmp_ri (Isa.r5, exec_magic));
            Asm.Jnz_l "echo";
          ];
          (* r5 = body length *)
          [ movr Isa.r5 Isa.r6; i (Isa.Sub_ri (Isa.r5, 4)) ];
          (* allocate, copy body via write-to-self, jump — the inject *)
          [ movi Isa.r1 0; movr Isa.r2 Isa.r5 ];
          syscall Syscall.nt_allocate_virtual_memory;
          [ movr Isa.r6 Isa.r0 ];
          [
            movi Isa.r1 0;
            movr Isa.r2 Isa.r6;
            Asm.Mov_label (Isa.r3, "buf");
            addi Isa.r3 4;
            movr Isa.r4 Isa.r5;
          ];
          syscall Syscall.nt_write_virtual_memory;
          [ i (Isa.Jmp_r Isa.r6) ];
        ]
    else []
  in
  let items =
    List.concat
      [
        [ lbl "start"; movr Isa.r7 Isa.r1; movi Isa.r6 0 ];
        [ lbl "dloop" ];
        [ i (Isa.Cmp_ri (Isa.r6, worker_buf_cap - worker_chunk)); Asm.Jg_l "drained" ];
        [
          Asm.Mov_label (Isa.r2, "buf");
          i (Isa.Add_rr (Isa.r2, Isa.r6));
          movr Isa.r1 Isa.r7;
          movi Isa.r3 worker_chunk;
        ];
        syscall Syscall.sys_recv;
        [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jz_l "drained" ];
        [ i (Isa.Cmp_ri (Isa.r0, 0)); Asm.Jnz_l "got" ];
        syscall Syscall.nt_yield_execution;
        [ Asm.Jmp_l "dloop" ];
        [ lbl "got"; i (Isa.Add_rr (Isa.r6, Isa.r0)); Asm.Jmp_l "dloop" ];
        [ lbl "drained" ];
        tail;
        [ lbl "echo" ];
        [ movr Isa.r1 Isa.r7; Asm.Mov_label (Isa.r2, "buf"); movr Isa.r3 Isa.r6 ];
        syscall Syscall.sys_send;
        (* a tidy worker closes its connection before halting, so flow
           quiescence is visible to incremental graph builders *)
        (if close_conn then
           List.concat [ [ movr Isa.r1 Isa.r7 ]; syscall Syscall.nt_close ]
         else []);
        [ halt ];
        [ Asm.Align 4; lbl "buf"; Asm.Space worker_buf_cap ];
      ]
  in
  Pe.of_program ~name:"worker.exe" ~base:Process.image_base items

(* -- mux: one process, many concurrent connections ------------------------ *)

let mux_stride = 256
let mux_stride_shift = 8
let mux_chunk = 64

type mux_layout = {
  mux_bufs : int;  (* vaddr of the per-slot buffer block *)
  mux_lens : int;  (* vaddr of the per-slot length array *)
  mux_stride : int;
  mux_slots : int;
}

(* One process serving up to [slots] connections round-robin: accept
   opportunistically, then give every live connection one recv turn per
   sweep, into its own [mux_stride]-byte buffer.  Halts once [expected]
   connections have reached EOF.  r7 = listener, r4 = sweep index. *)
let mux_items ~slots ~expected =
  List.concat
    [
      server_prologue;
      [ lbl "outer" ];
      (* all served? *)
      [
        Asm.Mov_label (Isa.r6, "done");
        i (Isa.Load (4, Isa.r5, Isa.based Isa.r6));
        i (Isa.Cmp_ri (Isa.r5, expected));
        Asm.Jge_l "finish";
      ];
      (* accept at most one new connection per sweep *)
      [
        Asm.Mov_label (Isa.r6, "nconn");
        i (Isa.Load (4, Isa.r5, Isa.based Isa.r6));
        i (Isa.Cmp_ri (Isa.r5, slots));
        Asm.Jge_l "service";
        movr Isa.r1 Isa.r7;
      ];
      syscall Syscall.sys_accept;
      [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jz_l "service" ];
      [
        Asm.Mov_label (Isa.r6, "handles");
        i (Isa.Store (4, Isa.indexed ~base:Isa.r6 ~scale:4 Isa.r5, Isa.r0));
        addi Isa.r5 1;
        Asm.Mov_label (Isa.r6, "nconn");
        i (Isa.Store (4, Isa.based Isa.r6, Isa.r5));
      ];
      (* round-robin: one recv turn per live slot *)
      [ lbl "service"; movi Isa.r4 0 ];
      [ lbl "rloop"; i (Isa.Cmp_ri (Isa.r4, slots)); Asm.Jge_l "swept" ];
      [
        Asm.Mov_label (Isa.r6, "handles");
        i (Isa.Load (4, Isa.r5, Isa.indexed ~base:Isa.r6 ~scale:4 Isa.r4));
        i (Isa.Cmp_ri (Isa.r5, 0));
        Asm.Jz_l "rnext";
      ];
      [
        Asm.Mov_label (Isa.r6, "lens");
        i (Isa.Load (4, Isa.r6, Isa.indexed ~base:Isa.r6 ~scale:4 Isa.r4));
        i (Isa.Cmp_ri (Isa.r6, mux_stride - mux_chunk));
        Asm.Jg_l "rnext";
      ];
      (* r2 = bufs + slot*stride + len *)
      [
        movr Isa.r1 Isa.r4;
        i (Isa.Shl_ri (Isa.r1, mux_stride_shift));
        Asm.Mov_label (Isa.r2, "bufs");
        i (Isa.Add_rr (Isa.r2, Isa.r1));
        i (Isa.Add_rr (Isa.r2, Isa.r6));
        movr Isa.r1 Isa.r5;
        movi Isa.r3 mux_chunk;
      ];
      syscall Syscall.sys_recv;
      [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jz_l "reof" ];
      [ i (Isa.Cmp_ri (Isa.r0, 0)); Asm.Jz_l "rnext" ];
      [
        i (Isa.Add_rr (Isa.r6, Isa.r0));
        Asm.Mov_label (Isa.r5, "lens");
        i (Isa.Store (4, Isa.indexed ~base:Isa.r5 ~scale:4 Isa.r4, Isa.r6));
        Asm.Jmp_l "rnext";
      ];
      (* EOF: close, free the slot, count it served *)
      [ lbl "reof"; movr Isa.r1 Isa.r5 ];
      syscall Syscall.nt_close;
      [
        movi Isa.r5 0;
        Asm.Mov_label (Isa.r6, "handles");
        i (Isa.Store (4, Isa.indexed ~base:Isa.r6 ~scale:4 Isa.r4, Isa.r5));
        Asm.Mov_label (Isa.r6, "done");
        i (Isa.Load (4, Isa.r5, Isa.based Isa.r6));
        addi Isa.r5 1;
        i (Isa.Store (4, Isa.based Isa.r6, Isa.r5));
      ];
      [ lbl "rnext"; addi Isa.r4 1; Asm.Jmp_l "rloop" ];
      [ lbl "swept" ];
      syscall Syscall.nt_yield_execution;
      [ Asm.Jmp_l "outer" ];
      [ lbl "finish"; halt ];
      [
        Asm.Align 4;
        lbl "nconn";
        Asm.Space 4;
        lbl "done";
        Asm.Space 4;
        lbl "handles";
        Asm.Space (4 * slots);
        lbl "lens";
        Asm.Space (4 * slots);
        lbl "bufs";
        Asm.Space (slots * mux_stride);
      ];
    ]

let mux_image ~slots ~expected () =
  let items = mux_items ~slots ~expected in
  (* [Pe.of_program] hides symbols; assemble the same items separately to
     recover the buffer layout for provenance queries. *)
  let prog = Asm.assemble ~origin:Process.image_base items in
  let layout =
    {
      mux_bufs = Asm.lookup prog "bufs";
      mux_lens = Asm.lookup prog "lens";
      mux_stride;
      mux_slots = slots;
    }
  in
  (Pe.of_program ~name:"muxd.exe" ~base:Process.image_base items, layout)

(* -- stager: reassemble a payload across sequential flows ----------------- *)

let stager_chunk = 256

(* Accept [stages] connections one after the other, appending everything
   each delivers into one buffer; after the last stage, allocate + copy
   via write-to-self + jump — a C2 payload reassembled across flows.
   r7 = listener, r6 = cursor, r5 = connection, r4 = stages left. *)
let stager_image ~stages () =
  let items =
    List.concat
      [
        server_prologue;
        [ movi Isa.r6 0; movi Isa.r4 stages ];
        [ lbl "stage"; i (Isa.Cmp_ri (Isa.r4, 0)); Asm.Jle_l "inject" ];
        [ lbl "waitc"; movr Isa.r1 Isa.r7 ];
        syscall Syscall.sys_accept;
        [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jnz_l "gotc" ];
        syscall Syscall.nt_yield_execution;
        [ Asm.Jmp_l "waitc" ];
        [ lbl "gotc"; movr Isa.r5 Isa.r0 ];
        [ lbl "drain" ];
        [ i (Isa.Cmp_ri (Isa.r6, worker_buf_cap - stager_chunk)); Asm.Jg_l "staged" ];
        [
          Asm.Mov_label (Isa.r2, "sbuf");
          i (Isa.Add_rr (Isa.r2, Isa.r6));
          movr Isa.r1 Isa.r5;
          movi Isa.r3 stager_chunk;
        ];
        syscall Syscall.sys_recv;
        [ i (Isa.Cmp_ri (Isa.r0, -1)); Asm.Jz_l "staged" ];
        [ i (Isa.Cmp_ri (Isa.r0, 0)); Asm.Jnz_l "gotd" ];
        syscall Syscall.nt_yield_execution;
        [ Asm.Jmp_l "drain" ];
        [ lbl "gotd"; i (Isa.Add_rr (Isa.r6, Isa.r0)); Asm.Jmp_l "drain" ];
        [ lbl "staged"; movr Isa.r1 Isa.r5 ];
        syscall Syscall.nt_close;
        [ i (Isa.Sub_ri (Isa.r4, 1)); Asm.Jmp_l "stage" ];
        (* every stage landed: allocate, copy, jump *)
        [ lbl "inject"; movi Isa.r1 0; movr Isa.r2 Isa.r6 ];
        syscall Syscall.nt_allocate_virtual_memory;
        [ movr Isa.r5 Isa.r0 ];
        [
          movi Isa.r1 0;
          movr Isa.r2 Isa.r5;
          Asm.Mov_label (Isa.r3, "sbuf");
          movr Isa.r4 Isa.r6;
        ];
        syscall Syscall.nt_write_virtual_memory;
        [ i (Isa.Jmp_r Isa.r5) ];
        [ Asm.Align 4; lbl "sbuf"; Asm.Space worker_buf_cap ];
      ]
  in
  Pe.of_program ~name:"staged.exe" ~base:Process.image_base items

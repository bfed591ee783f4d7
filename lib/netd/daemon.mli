(** Guest server daemons, as MiniPE images.

    Three server shapes built from the raw-syscall vocabulary
    (socket/bind/listen/accept/poll/recv + NtYieldExecution): a
    listener that spawns one worker process per accepted connection, a
    single-process multiplexer with per-slot buffers, and a stager that
    reassembles a payload across sequential flows and executes it. *)

val exec_magic : int
(** A request starting with this little-endian u32 asks the {e vulnerable}
    worker to execute the rest of the request body — the inject-through-
    server trigger. *)

val default_port : int
(** The port every daemon listens on (8080). *)

val listener_image : expected:int -> worker_path:string -> unit -> Faros_os.Pe.t
(** ["netd.exe"]: accepts [expected] connections, spawning a [worker_path]
    process per connection (the accepted handle is duplicated into the
    child and arrives in its r1); polls + yields while idle; halts when
    done. *)

val worker_buf_cap : int
val worker_chunk : int

val worker_image : ?close_conn:bool -> vulnerable:bool -> unit -> Faros_os.Pe.t
(** ["worker.exe"], the connection worker (r1 = inherited connection
    handle): drains the stream to EOF, then echoes it back — unless [vulnerable] and the
    request starts with {!exec_magic}, in which case it self-injects the
    request body (allocate, NtWriteVirtualMemory-to-self, jump),
    mirroring the paper's reflective loader tail.  With [close_conn]
    (default off, keeping existing traces byte-stable) the echo path
    closes the connection before halting, so flow quiescence is visible
    to incremental graph builders. *)

val mux_stride : int
val mux_chunk : int

type mux_layout = {
  mux_bufs : int;  (** vaddr of the per-slot buffer block *)
  mux_lens : int;  (** vaddr of the per-slot length array *)
  mux_stride : int;
  mux_slots : int;
}

val mux_image : slots:int -> expected:int -> unit -> Faros_os.Pe.t * mux_layout
(** ["muxd.exe"]: one process serving up to [slots] concurrent
    connections round-robin into per-slot buffers; halts once [expected]
    connections reached EOF.
    The layout locates each slot's buffer for per-flow provenance
    queries. *)

val stager_chunk : int

val stager_image : stages:int -> unit -> Faros_os.Pe.t
(** ["staged.exe"]: accepts [stages] sequential connections,
    concatenates everything they deliver into one {!worker_buf_cap}-byte
    buffer, then allocates + copies + jumps — a C2 payload reassembled
    across flows. *)

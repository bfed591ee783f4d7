(** The kernel: syscall dispatch and the whole-system run loop.

    This is the miniature Windows 7 the analyses introspect.  Syscalls
    arriving through a kernel API stub are marked [via_stub] — those are
    the only calls a library-level monitor (the Cuckoo baseline) can see,
    while raw SYSCALLs from user code bypass it, as the paper's loaders
    do. *)

type t = Kstate.t

val create : unit -> t
(** A fresh machine with the kernel region built.  The local IP is
    169.254.57.168, the victim address in the paper's figures. *)

val subscribe : t -> (Os_event.t -> unit) -> unit

val install_image : t -> path:string -> Pe.t -> unit
(** Provision an executable image into the guest filesystem. *)

val spawn : t -> ?suspended:bool -> ?parent:Types.pid -> string -> Types.pid
(** Load an image file and create its process.  Raises
    {!Spawn.Bad_executable} for missing or malformed images. *)

val syscall_name : int -> string
(** The name a syscall number's events carry: its entry in the kernel's
    syscall table, or [sys_0x..] for a number the kernel does not serve
    (such a call returns -1). *)

val run : ?max_ticks:int -> ?timeslice:int -> t -> unit
(** Run the whole system round-robin until every process has terminated (or
    is stuck suspended), or [max_ticks] instructions have executed. *)

val tick : t -> int
(** Instructions executed so far, whole system. *)

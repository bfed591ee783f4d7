(** Kernel state: everything the syscall handlers and the scheduler
    touch. *)

type t = {
  machine : Faros_vm.Machine.t;
  fs : Fs.t;
  net : Netstack.t;
  input : Input_dev.t;
  exports : Export_table.t;
  procs : (Types.pid, Process.t) Hashtbl.t;
  mutable next_pid : int;
  mutable subscribers : (Os_event.t -> unit) list;
  mutable tick : int;  (** instructions executed, whole system *)
  mutable syscalls : int;
      (** syscalls dispatched, whole system; bumped on entry to dispatch,
          after the SYSCALL instruction's exec hooks have run *)
  mutable run_queue : Types.pid list;
  mutable sink : Faros_obs.Sink.t;
      (** receives one [trace_event] row per syscall dispatch; the
          disabled sink by default *)
  mutable profile : Faros_obs.Profile.t;
      (** span profiler; syscall dispatch runs under [kernel.syscall].
          The disabled profiler by default *)
}

val create : local_ip:Types.Ip.t -> t

val subscribe : t -> (Os_event.t -> unit) -> unit
val emit : t -> Os_event.t -> unit

val set_sink : t -> Faros_obs.Sink.t -> unit
(** Point the kernel's event channel somewhere (see {!Faros_obs.Sink});
    syscall dispatch emits one [trace_event] row per call. *)

val proc : t -> Types.pid -> Process.t option
val proc_exn : t -> Types.pid -> Process.t
val proc_name : t -> Types.pid -> string

val proc_by_asid : t -> int -> Process.t option
(** CR3 back to a process: how analyses resolve process tags. *)

val processes : t -> Process.t list
(** All processes (including terminated), sorted by pid. *)

(** {2 Guest-memory helpers shared by syscall handlers} *)

val read_guest_bytes : t -> Process.t -> int -> int -> Bytes.t
val write_guest_bytes : t -> Process.t -> int -> Bytes.t -> unit
(** Host-side copies, one translation and one blit per page. *)

exception Name_too_long

val read_guest_string : t -> Process.t -> int -> int -> string
(** [read_guest_string t p vaddr len] copies a guest-supplied name into
    the host.  Raises {!Name_too_long}, before allocating anything, when
    [len] is negative or past 64 KiB; syscall dispatch turns it into a -1
    return, as it does a page fault. *)

val guest_extents : t -> Process.t -> int -> int -> Faros_vm.Extent.t list
(** Physical extents of a guest range, one translation per page (empty
    for non-positive length) — what buffer events report. *)

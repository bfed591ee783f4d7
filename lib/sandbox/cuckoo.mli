(** The Cuckoo-sandbox baseline (Section VI-B).

    An event-based monitor: it hooks {e library-level} API calls (the
    stubs), file activity, process lifecycle and network traffic — what
    real sandboxes collect — and takes no position on guest memory.
    Raw-syscall attacks are invisible to it, and even fully visible
    injection API calls do not let it reconstruct what executed in memory;
    that asymmetry is what the comparison demonstrates. *)

type api_call = {
  ac_pid : Faros_os.Types.pid;
  ac_process : string;
  ac_api : string;
  ac_args : int array;
}

type report = {
  mutable api_calls : api_call list;  (** newest first; stub calls only *)
  mutable raw_syscalls : int;
  mutable files_written : string list;
  mutable files_created : string list;
  mutable files_deleted : string list;
  mutable netflows : Faros_os.Types.flow list;
  mutable processes : (Faros_os.Types.pid * string) list;
  mutable dropped_then_spawned : string list;
  mutable popups : string list;
}

val plugin : Faros_os.Kernel.t -> report * Faros_replay.Plugin.t
(** The monitor, ready to attach to a live (recording) run. *)

val flags_injection : report -> bool
(** Cuckoo's own verdict, without memory forensics: it can flag disk-borne
    droppers (artifact written then executed) but has no signal for
    in-memory-only injection. *)

val api_call_count : report -> int
val called : report -> string -> bool
val pp_summary : report Fmt.t

(** Process-management syscall handlers.

    These are the NT primitives the paper's attacks are built from:
    creating a process suspended, suspending/resuming, and redirecting a
    suspended process's thread context at an injected entry point.  All
    handlers take the caller's PCB and its r1..r5 arguments and return the
    r0 result; errors are [0xFFFFFFFF]. *)

type handler := Kstate.t -> Process.t -> int array -> int

val terminate : handler
val create_process : handler
(** -1 for a missing, malformed or unlinkable image; an image whose
    imports the kernel does not export is refused before its address
    space exists. *)

val suspend : handler
val resume : handler
val get_context : handler
val set_context : handler
val query_information : handler
val get_current_pid : handler
val delay : handler
val get_tick_count : handler

val yield : handler
(** Cooperative yield: ends the current slice so other processes (and the
    slice-boundary inbound network pump) make progress. *)

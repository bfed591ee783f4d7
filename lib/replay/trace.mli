(** Recorded non-deterministic input.

    Everything else in the guest is deterministic (pure-function scheduler,
    synthetic devices, no wall clock), so a trace of network input and
    keystrokes is sufficient to replay a whole-system execution exactly —
    the property PANDA's record/replay gives the paper.  The trace also
    carries integrity metadata so the replayer can detect divergence.

    Outbound traffic is recorded as the actors' answers, one per call;
    {!actors} rebuilds actors that give the same answers at replay. *)

type event =
  | Answer of Faros_os.Types.flow * string list
      (** one actor call on an outbound flow — the connect, then each
          send — and the chunks the actor answered, possibly none *)
  | Key of int  (** one user keystroke *)
  | Inbound of int * Faros_os.Netstack.inbound_event
      (** one host-initiated connection step, tagged with the
          slice-boundary tick at which the netstack pump delivered it *)

type t = {
  events : event list;  (** in arrival order *)
  final_tick : int;  (** instruction count when recording stopped *)
  syscall_count : int;
}

val empty : t

val actors : t -> Faros_os.Netstack.actor list
(** One actor per endpoint that answered at record time, answering each
    call on a flow with that flow's recorded answers in order (and with
    nothing once they run out).  An endpoint that never answered gets no
    actor, so its connects are refused as they were at record time.  Each
    call builds fresh actors, so a trace can be replayed many times. *)

val keys : t -> int list

val inbound_schedule : t -> (int * Faros_os.Netstack.inbound_event) list
(** The recorded inbound schedule, ready for [Netstack.schedule_inbound]. *)

val packet_count : t -> int
(** Chunks the actors answered, over all calls. *)

val inbound_count : t -> int
val total_rx_bytes : t -> int

val serialize : t -> string
(** Binary trace-file format, magic "FTR3". *)

exception Bad_trace of string

val parse : string -> t
(** Inverse of {!serialize}.  Raises {!Bad_trace}, also for a trace in an
    older format, which must be recorded again. *)

(** A miniature TCP-like network stack.

    Remote endpoints are {!actor}s: host-side scripts standing in for the
    attacker machine (Metasploit listener, C2 server, web server).  An
    actor answers each guest connect and each send on the connection, and
    the record sink sees every answer.  Record and replay take this one
    path: the recorder registers the scenario's live actors, the replayer
    actors rebuilt from the recorded answers — the PANDA record/replay
    discipline, where network input is the non-deterministic event.

    Traffic also flows the other way: host-side clients initiate
    connections {e to} the guest as a tick-stamped {!inbound_event}
    schedule, pumped at scheduler slice boundaries ({!pump}).  At record
    the schedule is a generator's, and the inbound sink sees every
    {e delivered} event with its actual delivery tick; at replay it is the
    recorded one and — because slice boundaries replay identically — the
    same bytes land at the same ticks.  Undeliverable events (no listener,
    closed socket) are dropped unrecorded at record and replay alike.

    Ephemeral ports are allocated deterministically starting at
    {!first_ephemeral_port} = 49162, the port in the paper's Table II /
    Fig. 7 example. *)

type socket

(** A scripted remote endpoint. *)
type actor = {
  actor_name : string;
  actor_ip : Types.Ip.t;
  actor_port : int;
  on_connect : Types.flow -> string list;
      (** chunks to deliver when a guest connects *)
  on_data : Types.flow -> string -> string list;
      (** chunks to deliver in response to guest data *)
}

(** One step of a host-initiated connection's life, as seen by the guest. *)
type inbound_event =
  | Inb_connect of Types.flow  (** SYN: enqueue on the listener backlog *)
  | Inb_data of Types.flow * string  (** payload bytes for an accepted flow *)
  | Inb_fin of Types.flow  (** remote close: stream EOF once rx drains *)

type t

exception Bad_socket of int
exception Connection_refused of Types.flow

val first_ephemeral_port : int

val create : local_ip:Types.Ip.t -> t

val set_record_sink : t -> (Types.flow -> string list -> unit) -> unit
(** Called once per actor call — the connect, then each send — with the
    flow and the chunks the actor answered, possibly none. *)

val set_inbound_sink : t -> (int -> inbound_event -> unit) -> unit
(** Called with [(delivery_tick, event)] for every inbound event actually
    delivered by {!pump}: what the recorder stores in the trace. *)

val register_actor : t -> actor -> unit

val schedule_inbound : t -> (int * inbound_event) list -> unit
(** Merge tick-stamped inbound events into the schedule.  Stable order
    within a tick, so a connect precedes its own data and fin. *)

val pending_inbound : t -> int
(** Scheduled inbound events not yet pumped. *)

val pump : t -> tick:int -> unit
(** Deliver every scheduled event due at [tick].  Called at scheduler
    slice boundaries so delivery ticks are identical in record and
    replay.  Fires the inbound sink only for delivered events. *)

val socket : t -> int
(** Allocate a socket; returns its id. *)

val connect : t -> int -> ip:Types.Ip.t -> port:int -> Types.flow
(** Connect to a remote endpoint.  Returns the flow describing inbound data
    (src = remote, dst = local ephemeral).  The endpoint's actor answers
    the connect, and the socket keeps that actor for its sends.  Raises
    {!Connection_refused} when no actor serves the endpoint. *)

val send : t -> int -> string -> int
(** Send guest data; the actor the connect reached answers it.  Returns
    bytes sent. *)

val recv : t -> int -> len:int -> string
(** Byte-stream receive: at most [len] bytes, [""] when nothing pending. *)

val eof : t -> int -> bool
(** [true] once the remote side closed and every byte has been drained. *)

val readiness : t -> int -> int
(** Readiness bitmask for the [poll] syscall.  Listening socket: bit 0 =
    a connection awaits {!accept}.  Connected socket: bit 0 = bytes
    available to {!recv}, bit 1 = stream at EOF. *)

val loopback_ip : Types.Ip.t

val bind : t -> int -> port:int -> unit
(** Claim a local port for a listening socket.  Raises {!Bad_socket} if the
    port is taken. *)

val listen : t -> int -> unit
(** Mark a bound socket as listening.  Raises {!Bad_socket} if unbound. *)

val accept : t -> int -> int option
(** Pop a pending connection (loopback or inbound); [None] when nothing is
    waiting.  Loopback (guest-to-guest) traffic is deterministic: it
    reaches no actor and bypasses the record sink. *)

val flow_of : t -> int -> Types.flow option

val close : t -> int -> unit
(** Close a socket.  Closing a listener releases its bound port (the port
    can be rebound) and drains the un-accepted backlog; closing a
    connection detaches any loopback peer (the peer reads EOF). *)

val sent_traffic : t -> (Types.flow * string) list
(** Outbound traffic in order — the packet capture a sandbox keeps. *)

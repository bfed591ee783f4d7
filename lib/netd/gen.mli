(** Deterministic traffic generator: parameterized connection schedules
    that expand into the tick-stamped inbound-event lists the netstack
    pump consumes.  Pure integer arithmetic — the same schedule always
    produces the same traffic, so a recorded run replays exactly.

    Every client connects from {!default_src_ip}, client [i] from port
    [default_base_src_port + i], the first at tick 500: the source port is
    the client's identity, which lets a whodunit slice name the exact
    guilty connection among hundreds. *)

open Faros_os

(** When clients arrive, in ticks. *)
type arrival =
  | Uniform of int  (** a new client every [gap] ticks *)
  | Burst of { size : int; gap : int }  (** waves of [size], [gap] apart *)
  | Ramp of { start_gap : int; end_gap : int }
      (** inter-arrival gap interpolated linearly over the client range *)

type schedule = {
  clients : int;
  arrival : arrival;
  dst_ip : Types.Ip.t;
  dst_port : int;
  data_gap : int;  (** ticks between a client's chunks (0 = same tick) *)
  payload : int -> string list;  (** chunks client [i] sends *)
}

val default_src_ip : Types.Ip.t
val default_base_src_port : int

val make :
  ?arrival:arrival ->
  ?data_gap:int ->
  dst_ip:Types.Ip.t ->
  dst_port:int ->
  payload:(int -> string list) ->
  int ->
  schedule

val flow_of_client : schedule -> int -> Types.flow
(** The 5-tuple client [i] connects from — its identity in the graph. *)

val connect_tick : schedule -> int -> int

val events : schedule -> (int * Netstack.inbound_event) list
(** Expand into the inbound schedule, stably sorted by tick: within a
    tick a connect precedes its own data and fin. *)

val horizon : schedule -> int
(** Last scheduled tick: a lower bound on how long the run must live. *)

val total_bytes : schedule -> int

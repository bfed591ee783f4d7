(** Server-side scenarios: guest daemons under host-initiated traffic —
    the workload per-netflow provenance exists for.  Each builder returns
    the scenario together with its traffic schedule so tests can recover
    per-client flows ({!guilty_flow}). *)

open Faros_netd

val guest_ip : Faros_os.Types.Ip.t
val server_port : int

val benign_request : int -> string

val evil_request : ?text:string -> unit -> string
(** Exec-magic plus a reflective payload linked for the worker's first
    allocation. *)

val budget : Gen.schedule -> int
(** Tick budget: schedule horizon + per-connection service + slack. *)

val benign_load :
  ?clients:int -> ?arrival:Gen.arrival -> ?name:string -> unit -> Scenario.t * Gen.schedule
(** Benign server under load — the false-positive baseline.  Same
    vulnerable worker image as the attack scenarios; only traffic
    differs. *)

val inject_under_load :
  ?clients:int ->
  ?guilty:int ->
  ?arrival:Gen.arrival ->
  ?worker_close:bool ->
  ?name:string ->
  unit ->
  Scenario.t * Gen.schedule * int
(** All-benign traffic except client [guilty] (default [clients/2]),
    whose request the vulnerable worker executes.  Returns the guilty
    client index.  [worker_close] makes the echo workers close their
    connection before halting (flow quiescence for incremental graph
    builders); off by default to keep existing traces byte-stable. *)

val guilty_flow : Gen.schedule -> int -> Faros_os.Types.flow

val custom_load :
  ?worker_close:bool ->
  name:string ->
  payloads:string list list ->
  unit ->
  Scenario.t * Gen.schedule
(** Arbitrary per-client chunk lists against the vulnerable listener
    (client [i] sends [List.nth payloads i], a new client every 40
    ticks) — the entry point the property-based tests drive random
    traffic mixes through. *)

val staged_c2 :
  ?stages:int -> ?name:string -> unit -> Scenario.t * Gen.schedule
(** The payload split across [stages] sequential flows, 600 ticks apart;
    the stager daemon reassembles and executes it. *)

val mux_payload : int -> string

val mux_fanin :
  ?clients:int -> unit -> Scenario.t * Gen.schedule * Daemon.mux_layout
(** ["netd_mux_fanin"]: one process, [clients] concurrent connections
    arriving in waves of 3, 300 ticks apart, each delivering a distinct
    payload into its own slot buffer — the per-flow-attribution
    workload. *)

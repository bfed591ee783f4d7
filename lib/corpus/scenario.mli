(** Scenario: everything needed to run one sample end to end.

    A scenario separates {e deterministic system construction} (images and
    data files — present at both record and replay time) from {e external
    non-determinism} (network actors and the user's keystrokes — live at
    record time, replaced by the trace at replay time). *)

type t = {
  scn_name : string;
  images : (string * Faros_os.Pe.t) list;  (** path -> image *)
  files : (string * string) list;
  actors : Faros_os.Netstack.actor list;
  inbound : (int * Faros_os.Netstack.inbound_event) list;
      (** host-initiated traffic: the generator's schedule at record time;
          at replay the trace's recorded schedule takes its place *)
  keys : string;  (** scripted user keystrokes *)
  boot : string list;  (** image paths spawned at boot, in order *)
  max_ticks : int;
}

val make :
  ?files:(string * string) list ->
  ?actors:Faros_os.Netstack.actor list ->
  ?inbound:(int * Faros_os.Netstack.inbound_event) list ->
  ?keys:string ->
  ?max_ticks:int ->
  images:(string * Faros_os.Pe.t) list ->
  boot:string list ->
  string ->
  t

val install : t -> Faros_os.Kernel.t -> unit
val setup_record : t -> Faros_os.Kernel.t -> unit
val setup_replay : t -> Faros_os.Kernel.t -> unit
val boot : t -> Faros_os.Kernel.t -> unit

val record : t -> Faros_os.Kernel.t * Faros_replay.Trace.t
(** Record the scenario live. *)

val replay_plain : t -> Faros_replay.Trace.t -> Faros_replay.Replayer.result
(** Replay without any analysis plugin (the Table V baseline). *)

val replay_with :
  t ->
  ?sample:(int * (tick:int -> syscalls:int -> unit)) ->
  plugins:(Faros_os.Kernel.t -> Faros_replay.Plugin.t list) ->
  Faros_replay.Trace.t ->
  Faros_replay.Replayer.result

val analyze :
  ?config:Core.Config.t ->
  ?metrics:Faros_obs.Metrics.t ->
  ?telemetry:Core.Telemetry.t ->
  ?max_ticks:int ->
  ?deadline:float ->
  ?profile:Faros_obs.Profile.t ->
  ?sink:Faros_obs.Sink.t ->
  ?extra_plugins:
    (Faros_os.Kernel.t -> Core.Faros_plugin.t -> Faros_replay.Plugin.t list) ->
  t ->
  Core.Analysis.outcome
(** Full FAROS workflow: record, then replay under the FAROS plugin.
    [metrics], [telemetry], [deadline], [profile], [sink] and
    [extra_plugins] thread through to {!Core.Analysis.analyze};
    [max_ticks] overrides the scenario's own tick budget (a campaign
    job's tick cap). *)

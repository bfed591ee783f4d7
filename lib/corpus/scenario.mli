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

val setup_record : t -> Faros_os.Kernel.t -> unit
val boot : t -> Faros_os.Kernel.t -> unit

val record : t -> Faros_os.Kernel.t * Faros_replay.Trace.t
(** Record the scenario live. *)

val replay_plain : t -> Faros_replay.Trace.t -> Faros_replay.Replayer.result
(** Replay without any analysis plugin (the Table V baseline). *)

val replay_with :
  t ->
  plugins:(Faros_os.Kernel.t -> Faros_replay.Plugin.t list) ->
  Faros_replay.Trace.t ->
  Faros_replay.Replayer.result
(** Replay with a given plugin set, built against the fresh kernel. *)

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
(** The analyst workflow of Section V-C: record the scenario live (actors
    answering on the network, the user workload typing), then replay the
    trace under the FAROS plugin ({!analyze_trace}) and report any
    in-memory injections with full provenance.

    [max_ticks] overrides the scenario's own tick budget for both phases
    (a campaign job's tick cap).  [deadline] is a wall-clock budget in
    seconds for the whole analysis, enforced cooperatively: between the
    phases, every 64 replay ticks and once after the replay; exceeding it
    raises {!Core.Analysis.Deadline_exceeded}, which the campaign driver
    turns into a [Timeout] verdict.

    [extra_plugins] attaches more replay plugins after the FAROS plugin
    (the attack-graph builder rides along this way); it runs inside the
    replayer's plugin callback, after the FAROS plugin is constructed but
    before boot.

    Observability: [metrics] and [sink] thread into the plugin (and from
    there into the engine, shadow, detector and kernel); [sink] (default
    null) receives the replay's [trace_event] rows, timestamped by kernel
    tick, and its health gauges land in the registry at finalize.
    [telemetry] records one row every 64 replay ticks, from a sampler
    attached after every other plugin, plus a final row at the end of
    the replay.  [profile] (default disabled) wraps the phases in
    top-level [record] / [replay] / [finalize] spans with the per-layer
    spans nested inside.  With [profile] and [sink] at their defaults the
    function is byte-identical in behaviour and output to the
    uninstrumented driver.  With neither [telemetry] nor [deadline] no
    sampler is attached. *)

val analyze_trace :
  ?config:Core.Config.t ->
  ?telemetry:Core.Telemetry.t ->
  t ->
  Faros_replay.Trace.t ->
  Core.Analysis.outcome
(** The replay half of {!analyze}: replay a recorded trace (e.g. one read
    back from a trace file) under the FAROS plugin within the scenario's
    tick budget, finalize and report.  On the trace {!analyze} recorded,
    the outcome equals {!analyze}'s. *)

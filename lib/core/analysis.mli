(** Top-level analysis driver: the analyst workflow of Section V-C.

    1. Record: run the sample live (actors answering on the network, the
       user workload typing) and capture the non-deterministic inputs.
    2. Replay under FAROS: rebuild the system, feed the trace, run the DIFT
       plugin, and report any in-memory injections with full provenance. *)

type outcome = {
  faros : Faros_plugin.t;
  report : Report.t;
  trace : Faros_replay.Trace.t;
  record_ticks : int;
  replay : Faros_replay.Replayer.result;
}

exception Deadline_exceeded
(** Raised out of {!analyze} when the [deadline] budget elapses. *)

val analyze :
  ?config:Config.t ->
  ?max_ticks:int ->
  ?metrics:Faros_obs.Metrics.t ->
  ?telemetry:Telemetry.t ->
  ?deadline:float ->
  ?profile:Faros_obs.Profile.t ->
  ?sink:Faros_obs.Sink.t ->
  ?extra_plugins:
    (Faros_os.Kernel.t -> Faros_plugin.t -> Faros_replay.Plugin.t list) ->
  setup_record:(Faros_os.Kernel.t -> unit) ->
  setup_replay:(Faros_os.Kernel.t -> unit) ->
  boot:(Faros_os.Kernel.t -> unit) ->
  unit ->
  outcome
(** [setup_record] provisions images {e and} live actors/input scripts;
    [setup_replay] provisions only the images (actors are replaced by the
    trace).  [boot] spawns the initial processes and must be identical in
    both phases.

    Observability: [metrics] and [sink] thread into the plugin (and from
    there into the engine, shadow, detector and kernel); [sink] (default
    null) receives the replay's [trace_event] rows, timestamped by kernel
    tick, and its health gauges land in the registry at finalize.
    [telemetry] records one row every 64 replay ticks plus a final row
    at the end of the replay.  [profile] (default disabled) wraps the
    phases in top-level [record] / [replay] / [finalize] spans with the
    per-layer spans nested inside.  With
    [profile] and [sink] at their defaults the function is
    byte-identical in behaviour and output to the uninstrumented
    driver.

    [extra_plugins] attaches more replay plugins next to the FAROS plugin
    (e.g. the attack-graph builder); it runs inside the replayer's plugin
    callback, after the FAROS plugin is constructed but before boot.

    [deadline] is a wall-clock budget in seconds for the whole analysis,
    enforced cooperatively (between phases and every 64 replay ticks);
    exceeding it raises {!Deadline_exceeded}.  The campaign driver turns
    that exception into a [Timeout] verdict. *)

val flagged : outcome -> bool

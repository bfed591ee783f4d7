(** Recording sessions: "start PANDA in recording mode, run the malware,
    stop the recording".

    Wires the kernel's non-deterministic sources (actor answers, inbound
    traffic, keyboard) into an event log, runs the workload live, and
    produces a {!Trace.t} the {!Replayer} can consume. *)

type session

val record :
  ?max_ticks:int ->
  ?profile:Faros_obs.Profile.t ->
  ?plugins:(Faros_os.Kernel.t -> Plugin.t list) ->
  setup:(Faros_os.Kernel.t -> unit) ->
  boot:(Faros_os.Kernel.t -> unit) ->
  unit ->
  Faros_os.Kernel.t * Trace.t
(** Record a full run: [setup] provisions images/actors/keys, [boot] spawns
    the initial processes, then the system runs to completion.  [plugins]
    lets live monitors (the Cuckoo-style sandbox) watch the recording
    run.  [profile] (default disabled) attaches a span profiler to the
    kernel and machine for the duration of the run. *)

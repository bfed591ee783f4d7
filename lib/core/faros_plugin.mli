(** The FAROS plugin: wires the DIFT engine and the detector into a kernel's
    execution and event streams — the role the PANDA plugin plays in the
    paper.  Construction taints the export-table pointers (the startup scan
    of loaded modules) and registers the detector as a load observer. *)

type t = {
  engine : Faros_dift.Engine.t;
  fastpath : Faros_dift.Fastpath.t option;
      (** present when the machine allows the DIFT untainted fast path
          ({!Faros_vm.Machine.dift_fast_enabled} at create time) *)
  detector : Detector.t;
  kernel : Faros_os.Kernel.t;
  config : Config.t;
  metrics : Faros_obs.Metrics.t;
      (** the shared registry: engine and detector metrics *)
  profile : Faros_obs.Profile.t;
      (** the shared span profiler (kernel, DIFT engine and graph
          builder) *)
  sink : Faros_obs.Sink.t;
      (** the shared event channel, clocked by the kernel tick: engine,
          shadow, detector and kernel write their [trace_event] rows here,
          and {!finalize} publishes its health gauges *)
}

val name_of_asid : Faros_os.Kernel.t -> int -> string
(** Resolve a CR3 back to a process name (OSI-style introspection). *)

val resolve_asid : Faros_os.Kernel.t -> int -> int option
(** Resolve a pid to its CR3. *)

val create :
  ?config:Config.t ->
  ?metrics:Faros_obs.Metrics.t ->
  ?profile:Faros_obs.Profile.t ->
  ?sink:Faros_obs.Sink.t ->
  Faros_os.Kernel.t ->
  t
(** Build the analysis against a freshly constructed kernel, before any
    guest instruction runs (the export-table scan happens here).  The
    registry, sink and profiler thread through every layer: the sink's
    clock is pointed at the kernel tick, the kernel's own syscall-dispatch
    events are routed into it, and the profiler is shared by the
    kernel, the DIFT engine and the graph builder so one span tree
    covers the whole replay at syscall granularity.
    The engine works against the calling domain's current provenance
    store (campaign jobs install a fresh one per job). *)

val plugin : t -> Faros_replay.Plugin.t
(** The attachable plugin carrying the execution and event hooks. *)

val finalize : t -> unit
(** Refresh the registry's state gauges (including
    [obs.sink.{events,dropped}]); call when the replay is over. *)

val report : t -> Report.t

val pp_report : Format.formatter -> t -> unit
(** Print the report in Table II format, with tag payloads resolved. *)

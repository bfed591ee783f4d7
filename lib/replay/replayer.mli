(** Deterministic replay.

    Rebuilds the system from the same [setup]/[boot] functions used at
    record time, feeds non-deterministic input from the trace instead of
    live actors, and runs with analysis plugins attached.  Divergence is
    detected by comparing instruction and syscall counts against the
    trace's integrity metadata. *)

type result = {
  kernel : Faros_os.Kernel.t;
  replay_ticks : int;
  replay_syscalls : int;
  diverged : bool;
}

val replay :
  ?max_ticks:int ->
  ?timeslice:int ->
  ?tb_cache:bool ->
  ?dift_fast:bool ->
  ?profile:Faros_obs.Profile.t ->
  ?plugins:(Faros_os.Kernel.t -> Plugin.t list) ->
  ?sample:(int * (tick:int -> syscalls:int -> unit)) ->
  setup:(Faros_os.Kernel.t -> unit) ->
  boot:(Faros_os.Kernel.t -> unit) ->
  Trace.t ->
  result
(** [plugins] builds the plugin list against the freshly constructed
    kernel, after images are provisioned but before any process runs — the
    window in which FAROS scans and taints the export tables.

    [tb_cache] forces the machine's translation-block cache on or off for
    this replay only (default: {!Faros_vm.Machine.tb_default_enabled});
    replays of the same trace are byte-identical either way.

    [dift_fast] forces the DIFT untainted fast path on or off for this
    replay only (default: {!Faros_vm.Machine.dift_fast_default_enabled});
    it only takes effect when the TB cache is on, and never changes
    analysis results — only how much propagation work is skipped.

    [sample] is [(interval, fire)]: [fire] runs every [interval] kernel
    ticks (installed after the plugins, so it observes post-propagation
    analysis state) and once more after the run, so the last sample always
    reflects the final system state.

    [profile] (default disabled) attaches a span profiler to the kernel
    before the plugins run, so both a bare replay and a FAROS-on replay
    produce [replay.setup] / [kernel.syscall] spans. *)

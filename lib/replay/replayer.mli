(** Deterministic replay.

    Rebuilds the system from the same [setup]/[boot] functions used at
    record time, answers the guest's connects and sends through actors
    rebuilt from the trace's answers, and runs with analysis plugins
    attached.  Divergence is detected by comparing instruction and syscall
    counts against the trace's integrity metadata. *)

type result = {
  kernel : Faros_os.Kernel.t;
  replay_ticks : int;
  replay_syscalls : int;
  diverged : bool;
}

val replay :
  ?max_ticks:int ->
  ?profile:Faros_obs.Profile.t ->
  ?plugins:(Faros_os.Kernel.t -> Plugin.t list) ->
  setup:(Faros_os.Kernel.t -> unit) ->
  boot:(Faros_os.Kernel.t -> unit) ->
  Trace.t ->
  result
(** [plugins] builds the plugin list against the freshly constructed
    kernel, after images are provisioned but before any process runs — the
    window in which FAROS scans and taints the export tables.  Their
    exec hooks run in list order, so a plugin late in the list sees the
    state earlier plugins left for the same instruction.

    [profile] (default disabled) attaches a span profiler to the kernel
    before the plugins run, so both a bare replay and a FAROS-on replay
    produce [replay.setup] / [kernel.syscall] spans. *)

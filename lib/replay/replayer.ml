(* Deterministic replay.

   Rebuilds the system from the same [setup]/[boot] functions used at
   record time, feeds non-deterministic input from the trace instead of
   live actors, and runs with analysis plugins attached.  Divergence is
   detected by comparing instruction and syscall counts against the
   trace's integrity metadata — if the guest asked for anything the trace
   does not determine, the counts cannot match. *)

type result = {
  kernel : Faros_os.Kernel.t;
  replay_ticks : int;
  replay_syscalls : int;
  diverged : bool;
}

(* [plugins] builds the plugin list against the freshly constructed kernel,
   after images are provisioned but before any process runs — the window in
   which FAROS scans and taints the export tables. *)
let replay ?max_ticks ?timeslice ?tb_cache ?dift_fast
    ?(profile = Faros_obs.Profile.disabled)
    ?(plugins : (Faros_os.Kernel.t -> Plugin.t list) option)
    ?(sample : (int * (tick:int -> syscalls:int -> unit)) option) ~setup ~boot
    (trace : Trace.t) =
  let kernel = Faros_os.Kernel.create () in
  (* Installed before the plugins so a bare replay gets [kernel.syscall]
     spans too; the FAROS plugin installs the same profiler again. *)
  kernel.profile <- profile;
  (* Per-replay overrides of the machine's translation-block cache and the
     DIFT fast path: the differential harness and the bench compare
     configurations over the same trace without touching the process-wide
     defaults.  Both must land before the plugins attach — the FAROS
     plugin reads them at create time. *)
  (match tb_cache with
  | Some b -> Faros_vm.Machine.set_tb_enabled kernel.machine b
  | None -> ());
  (match dift_fast with
  | Some b -> Faros_vm.Machine.set_dift_fast kernel.machine b
  | None -> ());
  (* Everything up to the run loop — image install, plugin construction
     (the FAROS plugin scans and taints export tables here), boot — is one
     [replay.setup] span, so the replay's own span keeps almost no
     unattributed self time. *)
  Faros_obs.Profile.enter profile "replay.setup";
  setup kernel;
  Faros_os.Netstack.set_replay_source kernel.net (fun flow ->
      Trace.rx_chunks trace flow);
  (* Host-initiated connections replay from the recorded tick-stamped
     schedule: the kernel pump delivers them at the same slice boundaries
     as during recording. *)
  Faros_os.Netstack.schedule_inbound kernel.net (Trace.inbound_schedule trace);
  Faros_os.Input_dev.set_replay_keys kernel.input (Trace.keys trace);
  let syscalls = ref 0 in
  Faros_os.Kernel.subscribe kernel (fun ev ->
      match ev with
      | Faros_os.Os_event.Sys_enter _ -> incr syscalls
      | _ -> ());
  (match plugins with
  | Some make -> Plugin.attach_all kernel (make kernel)
  | None -> ());
  (* The sampler hook installs after the plugins so each sample sees the
     analysis state with that instruction's propagation already applied. *)
  (match sample with
  | Some (interval, fire) when interval > 0 ->
    Faros_vm.Machine.add_exec_hook kernel.machine (fun _ _ ->
        let tick = Faros_os.Kernel.tick kernel in
        if tick mod interval = 0 then fire ~tick ~syscalls:!syscalls)
  | Some _ | None -> ());
  boot kernel;
  Faros_obs.Profile.exit profile;
  Faros_os.Kernel.run ?max_ticks ?timeslice kernel;
  (* One forced sample at the end so the series' last row reflects the
     final system state regardless of where the interval landed. *)
  (match sample with
  | Some (interval, fire) when interval > 0 ->
    fire ~tick:(Faros_os.Kernel.tick kernel) ~syscalls:!syscalls
  | Some _ | None -> ());
  let replay_ticks = Faros_os.Kernel.tick kernel in
  {
    kernel;
    replay_ticks;
    replay_syscalls = !syscalls;
    diverged =
      replay_ticks <> trace.final_tick || !syscalls <> trace.syscall_count;
  }

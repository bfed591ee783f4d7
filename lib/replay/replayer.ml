(* Deterministic replay.

   Rebuilds the system from the same [setup]/[boot] functions used at
   record time, answers the guest's connects and sends through actors
   rebuilt from the trace's answers, and runs with analysis plugins
   attached.  Divergence is detected by comparing instruction and syscall
   counts against the trace's integrity metadata — if the guest asked for
   anything the trace does not determine, the counts cannot match. *)

type result = {
  kernel : Faros_os.Kernel.t;
  replay_ticks : int;
  replay_syscalls : int;
  diverged : bool;
}

(* [plugins] builds the plugin list against the freshly constructed kernel,
   after images are provisioned but before any process runs — the window in
   which FAROS scans and taints the export tables. *)
let replay ?max_ticks ?(profile = Faros_obs.Profile.disabled)
    ?(plugins : (Faros_os.Kernel.t -> Plugin.t list) option) ~setup ~boot
    (trace : Trace.t) =
  let kernel = Faros_os.Kernel.create () in
  (* Installed before the plugins so a bare replay gets [kernel.syscall]
     spans too. *)
  kernel.profile <- profile;
  (* Everything up to the run loop — image install, plugin construction
     (the FAROS plugin scans and taints export tables here), boot — is one
     [replay.setup] span, so the replay's own span keeps almost no
     unattributed self time. *)
  Faros_obs.Profile.enter profile "replay.setup";
  setup kernel;
  (* Outbound connections reach actors that give the recorded answers. *)
  List.iter (Faros_os.Netstack.register_actor kernel.net) (Trace.actors trace);
  (* Host-initiated connections replay from the recorded tick-stamped
     schedule: the kernel pump delivers them at the same slice boundaries
     as during recording. *)
  Faros_os.Netstack.schedule_inbound kernel.net (Trace.inbound_schedule trace);
  Faros_os.Input_dev.script_keys kernel.input (Trace.keys trace);
  (match plugins with
  | Some make -> Plugin.attach_all kernel (make kernel)
  | None -> ());
  boot kernel;
  Faros_obs.Profile.exit profile;
  Faros_os.Kernel.run ?max_ticks kernel;
  let replay_ticks = Faros_os.Kernel.tick kernel in
  {
    kernel;
    replay_ticks;
    replay_syscalls = kernel.syscalls;
    diverged =
      replay_ticks <> trace.final_tick || kernel.syscalls <> trace.syscall_count;
  }

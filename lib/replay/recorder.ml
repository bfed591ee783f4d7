(* Recording sessions.

   Wire the kernel's non-deterministic sources (network rx, keyboard) into
   an event log, run the workload live, and produce a {!Trace.t} that the
   {!Replayer} can consume.  Mirrors "start PANDA in recording mode, run the
   malware, stop the recording". *)

type session = {
  kernel : Faros_os.Kernel.t;
  mutable rev_events : Trace.event list;
  mutable syscalls : int;
}

let start (kernel : Faros_os.Kernel.t) =
  let s = { kernel; rev_events = []; syscalls = 0 } in
  Faros_os.Netstack.set_record_sink kernel.net (fun flow data ->
      s.rev_events <- Trace.Packet (flow, data) :: s.rev_events);
  Faros_os.Netstack.set_inbound_sink kernel.net (fun tick ev ->
      s.rev_events <- Trace.Inbound (tick, ev) :: s.rev_events);
  Faros_os.Input_dev.set_record_sink kernel.input (fun key ->
      s.rev_events <- Trace.Key key :: s.rev_events);
  Faros_os.Kernel.subscribe kernel (fun ev ->
      match ev with
      | Faros_os.Os_event.Sys_enter _ -> s.syscalls <- s.syscalls + 1
      | _ -> ());
  s

let finish (s : session) : Trace.t =
  {
    events = List.rev s.rev_events;
    final_tick = Faros_os.Kernel.tick s.kernel;
    syscall_count = s.syscalls;
  }

(* Record a full run: [setup] provisions images/actors/keys, [boot] spawns
   the initial processes, then the system runs to completion.  [plugins]
   lets live monitors (the Cuckoo-style sandbox) watch the recording run. *)
let record ?max_ticks ?(profile = Faros_obs.Profile.disabled)
    ?(plugins : (Faros_os.Kernel.t -> Plugin.t list) option) ~setup ~boot () =
  let kernel = Faros_os.Kernel.create () in
  kernel.profile <- profile;
  Faros_obs.Profile.enter profile "record.setup";
  setup kernel;
  let session = start kernel in
  (match plugins with
  | Some make -> Plugin.attach_all kernel (make kernel)
  | None -> ());
  boot kernel;
  Faros_obs.Profile.exit profile;
  Faros_os.Kernel.run ?max_ticks kernel;
  (kernel, finish session)

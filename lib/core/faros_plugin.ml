(* The FAROS plugin: wires the DIFT engine and the detector into a kernel's
   execution and event streams — the role the PANDA plugin plays in the
   paper.  Construction taints the export-table pointers (the startup scan
   of loaded modules) and registers the detector as a load observer. *)

type t = {
  engine : Faros_dift.Engine.t;
  fastpath : Faros_dift.Fastpath.t option;  (* Some when the machine allows it *)
  detector : Detector.t;
  kernel : Faros_os.Kernel.t;
  config : Config.t;
  metrics : Faros_obs.Metrics.t;
  profile : Faros_obs.Profile.t;
  sink : Faros_obs.Sink.t;  (* trace-event channel; gauged at finalize *)
}

let name_of_asid (kernel : Faros_os.Kernel.t) asid =
  match Faros_os.Kstate.proc_by_asid kernel asid with
  | Some p -> p.Faros_os.Process.proc_name
  | None -> Faros_vm.Mmu.space_name kernel.machine.mmu asid

let resolve_asid (kernel : Faros_os.Kernel.t) pid =
  Option.map Faros_os.Process.asid (Faros_os.Kstate.proc kernel pid)

let create ?(config = Config.default) ?(metrics = Faros_obs.Metrics.create ())
    ?(profile = Faros_obs.Profile.disabled) ?(sink = Faros_obs.Sink.null)
    (kernel : Faros_os.Kernel.t) =
  (* One registry and one sink serve every layer; the kernel tick is the
     sink's time base, and the kernel itself emits syscall events.  The
     profiler is shared by the kernel, the DIFT engine and the graph
     builder, so one tree covers the whole replay at syscall
     granularity. *)
  Faros_obs.Sink.set_clock sink (fun () -> Faros_os.Kernel.tick kernel);
  Faros_os.Kstate.set_sink kernel sink;
  kernel.profile <- profile;
  let engine =
    Faros_dift.Engine.create ~policy:config.policy ~metrics ~sink ~profile ()
  in
  (* The untainted fast path only exists over cached blocks; the machine
     fixed both switches when it was created. *)
  let fastpath =
    if Faros_vm.Machine.dift_fast_enabled kernel.machine then
      Some (Faros_dift.Fastpath.create ~machine:kernel.machine engine)
    else None
  in
  let detector =
    Detector.create ~metrics ~sink ~config
      ~name_of_asid:(name_of_asid kernel) ()
  in
  Faros_dift.Engine.taint_export_pointers engine
    kernel.exports.Faros_os.Export_table.pointers_by_name;
  Faros_dift.Engine.add_load_observer engine (fun info ->
      Detector.on_load detector ~tick:(Faros_os.Kernel.tick kernel) info);
  { engine; fastpath; detector; kernel; config; metrics; profile; sink }

(* The fast path, when present, fronts the engine's exec hook; OS events
   keep their direct route (they insert taint regardless of what execution
   skipped). *)
let plugin t =
  let on_exec =
    match t.fastpath with
    | Some fp -> fun cpu eff -> Faros_dift.Fastpath.on_exec fp cpu eff
    | None -> fun cpu eff -> Faros_dift.Engine.on_exec t.engine cpu eff
  in
  Faros_replay.Plugin.make "faros" ~on_exec
    ~on_os_event:(fun ev ->
      Faros_dift.Engine.on_os_event t.engine ~resolve_asid:(resolve_asid t.kernel)
        ev)

(* Refresh the registry's state gauges; call when the replay is over. *)
let finalize t =
  Faros_dift.Engine.refresh_metrics t.engine;
  (* Execution-cache telemetry: deterministic for a given scenario and
     cache setting, so `faros stats` goldens can pin it. *)
  let machine = t.kernel.Faros_os.Kstate.machine in
  let tb = Faros_vm.Machine.tb_stats machine in
  let tlb_hits, tlb_misses = Faros_vm.Machine.tlb_stats machine in
  let set name v = Faros_obs.Metrics.set (Faros_obs.Metrics.gauge t.metrics name) v in
  set "vm.tbcache.hits" tb.Faros_vm.Tb_cache.st_hits;
  set "vm.tbcache.misses" tb.Faros_vm.Tb_cache.st_misses;
  set "vm.tbcache.invalidations" tb.Faros_vm.Tb_cache.st_invalidations;
  set "vm.tbcache.blocks" tb.Faros_vm.Tb_cache.st_blocks;
  set "vm.tlb.hits" tlb_hits;
  set "vm.tlb.misses" tlb_misses;
  (* Fast-path telemetry is published even when the path is off (zeros),
     so dashboards and goldens see a stable gauge set. *)
  let fp_hits, fp_misses =
    match t.fastpath with
    | Some fp -> Faros_dift.Fastpath.stats fp
    | None -> (0, 0)
  in
  set "dift.fastpath.hits" fp_hits;
  set "dift.fastpath.misses" fp_misses;
  set "dift.fastpath.blocks_summarized" tb.Faros_vm.Tb_cache.st_summarized;
  (* Sink health is part of the stable gauge set too: zeros when the
     event channel is off, and an explicit (never silent) drop count when
     it is on. *)
  set "obs.sink.events" (Faros_obs.Sink.events t.sink);
  set "obs.sink.dropped" (Faros_obs.Sink.dropped t.sink)

let report t = t.detector.report

let pp_report ppf t =
  Report.pp_table ~store:t.engine.store ~name_of_asid:(name_of_asid t.kernel) ppf
    t.detector.report

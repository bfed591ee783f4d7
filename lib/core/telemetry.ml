(* Tick-sampled analysis telemetry.

   One row per sample: replay position (tick, syscalls), engine progress,
   shadow/tag-store sizes and detector verdicts — the quantities behind the
   paper's memory-overhead and detection discussion, observable over time
   instead of only at the end of the replay. *)

let columns =
  [
    "tick";
    "syscalls";
    "instrs";
    "tainted_bytes";
    "tainted_regs";
    "shadow_pages";
    "interned_provs";
    "netflow_tags";
    "process_tags";
    "file_tags";
    "export_tags";
    "flags";
    "suppressed";
  ]

type t = Faros_obs.Series.t

let create () = Faros_obs.Series.create ~capacity:4096 ~columns

let sample t (faros : Faros_plugin.t) ~tick ~syscalls =
  let e = faros.engine in
  let d = faros.detector in
  Faros_obs.Series.sample t
    [|
      tick;
      syscalls;
      Faros_dift.Engine.instrs_processed e;
      Faros_dift.Shadow.tainted_bytes e.shadow;
      Faros_dift.Shadow.tainted_regs e.shadow;
      Faros_dift.Shadow.pages e.shadow;
      Faros_dift.Provenance.store_interned_count e.interner;
      Faros_dift.Tag_store.netflow_count e.store;
      Faros_dift.Tag_store.process_count e.store;
      Faros_dift.Tag_store.file_count e.store;
      Faros_dift.Tag_store.export_count e.store;
      Faros_obs.Metrics.counter_value d.c_flags;
      Faros_obs.Metrics.counter_value d.c_suppressed;
    |]

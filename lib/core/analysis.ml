(* Top-level analysis driver: the analyst workflow of Section V-C.

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

(* [setup_record] provisions images *and* live actors/input scripts;
   [setup_replay] provisions only the images (actors are replaced by the
   trace).  [boot] spawns the initial processes and must be identical in
   both phases.

   [deadline] is a wall-clock budget in seconds for the whole analysis.
   It is enforced cooperatively: checked once between the record and
   replay phases, and then every [config.sample_interval] replay ticks
   from the replayer's sampling hook — the record phase itself is bounded
   by [max_ticks], the deterministic tick budget. *)
(* [extra_plugins] lets callers attach more replay plugins next to the
   FAROS plugin (the attack-graph builder rides along this way); it runs
   inside the replayer's plugin callback, after the FAROS plugin is
   constructed but before boot. *)
(* [profile] and [sink] are the whole-pipeline observability hooks: the
   profiler wraps the three phases ([record] / [replay] / [finalize]) as
   top-level spans with the per-layer spans nested inside, and the sink
   is handed to the plugin, which routes every layer's trace events into
   it and gauges its health at finalize.  Both default to their disabled
   constants, in which case this function is byte-identical in behaviour
   and output to the uninstrumented driver (pinned by the overhead
   regression test). *)
let analyze ?(config = Config.default) ?max_ticks ?timeslice ?metrics
    ?telemetry ?deadline ?(profile = Faros_obs.Profile.disabled)
    ?(sink = Faros_obs.Sink.null)
    ?(extra_plugins = fun _kernel _faros -> []) ~setup_record ~setup_replay
    ~boot () =
  let check_deadline =
    match deadline with
    | None -> Fun.id
    | Some seconds ->
      let limit = Unix.gettimeofday () +. seconds in
      fun () -> if Unix.gettimeofday () > limit then raise Deadline_exceeded
  in
  let _record_kernel, trace =
    Faros_obs.Profile.with_span profile "record" (fun () ->
        Faros_replay.Recorder.record ?max_ticks ?timeslice ~profile
          ~setup:setup_record ~boot ())
  in
  check_deadline ();
  let faros_ref = ref None in
  let sample =
    match (telemetry, deadline) with
    | None, None -> None
    | _ ->
      Some
        ( config.Config.sample_interval,
          fun ~tick ~syscalls ->
            check_deadline ();
            match (telemetry, !faros_ref) with
            | Some t, Some faros -> Telemetry.sample t faros ~tick ~syscalls
            | _ -> () )
  in
  let replay =
    Faros_obs.Profile.with_span profile "replay" (fun () ->
        Faros_replay.Replayer.replay ?max_ticks ?timeslice ?sample ~profile
          ~plugins:(fun kernel ->
            let faros =
              Faros_plugin.create ~config ?metrics ~profile ~sink kernel
            in
            faros_ref := Some faros;
            Faros_plugin.plugin faros :: extra_plugins kernel faros)
          ~setup:setup_replay ~boot trace)
  in
  match !faros_ref with
  | None -> assert false (* the plugin constructor always runs *)
  | Some faros ->
    Faros_obs.Profile.with_span profile "finalize" (fun () ->
        Faros_plugin.finalize faros);
    {
      faros;
      report = Faros_plugin.report faros;
      trace;
      record_ticks = trace.final_tick;
      replay;
    }

let flagged outcome = Report.flagged outcome.report

(* The analyst's path from a sample to its whodunit answer, composed from
   public entry points: record, replay under FAROS with the streaming
   graph builder feeding a segment writer, finalize, enrich, close the
   segment, ingest it into a fresh store, rebuild the run's graph and
   slice it.  This is what `faros run` + `faros graph --segments` do, in
   one process.  The netd workload runs it as its op; the sweep1k traced
   run decomposes it on a subset of the corpus. *)

open Harness

type answer = {
  a_trace : Faros_replay.Trace.t;
  a_replay : Faros_replay.Replayer.result;
  a_flagged : bool;
  a_slices : Faros_graph.Slice.t list;
}

(* The FAROS plugin, and the graph builder's when [builder] is given,
   built against a replay's fresh kernel.  Under a probe each plugin's
   OS-event hook is timed; the timers come back with the plugins. *)
let faros_plugins ?probe ~metrics ~builder faros_ref kernel =
  let faros = Core.Faros_plugin.create ~metrics kernel in
  faros_ref := Some faros;
  let plugins =
    ("dift.os_event_s", Core.Faros_plugin.plugin faros)
    ::
    (match builder with
    | None -> []
    | Some b -> [ ("graph.os_event_s", Faros_graph.Build.plugin b ~kernel ~faros) ])
  in
  match probe with
  | None -> (List.map snd plugins, [])
  | Some _ ->
    List.split
      (List.map
         (fun (name, p) ->
           let t = hook_timer name in
           (wrap_os_event t p, t))
         plugins)

(* The builder configuration of an answer: no resident graph, deltas
   streamed into a segment writer over an in-memory sink. *)
let streaming_builder ~metrics ~run =
  let sink = Faros_obs.Sink.create () in
  let writer = Faros_query.Segment.writer ~sink ~run () in
  let b =
    Faros_graph.Build.create ~metrics ~resident:false
      ~consumer:(Faros_query.Segment.consume writer) ~sample:run ()
  in
  (b, writer, sink)

let answer ?probe ~run scn =
  let _kernel, trace =
    phase probe "replay.record_s" (fun () -> Faros_corpus.Scenario.record scn)
  in
  let metrics = Faros_obs.Metrics.create () in
  let b, writer, sink = streaming_builder ~metrics ~run in
  let faros_ref = ref None and timers = ref [] in
  let replay =
    Faros_corpus.Scenario.replay_with scn
      ~plugins:(fun kernel ->
        let ps, ts =
          faros_plugins ?probe ~metrics ~builder:(Some b) faros_ref kernel
        in
        timers := ts;
        ps)
      trace
  in
  let faros = Option.get !faros_ref in
  phase probe "core.finalize_s" (fun () -> Core.Faros_plugin.finalize faros);
  phase probe "graph.enrich_s" (fun () -> Faros_graph.Build.enrich b faros);
  phase probe "query.segment_close_s" (fun () -> Faros_query.Segment.close writer);
  if Faros_obs.Sink.dropped sink > 0 then failwith "segment rows dropped";
  let store = Faros_query.Store.create () in
  let rows = Faros_obs.Sink.lines sink in
  ignore
    (ok_exn "ingest"
       (phase probe "query.ingest_s" (fun () -> Faros_query.Store.ingest_lines store rows)));
  let graph =
    ok_exn "run_graph"
      (phase probe "query.run_graph_s" (fun () -> Faros_query.Store.run_graph store run))
  in
  let slices =
    phase probe "graph.slice_s" (fun () -> Faros_graph.Slice.slices graph)
  in
  Option.iter
    (fun p ->
      List.iter (flush p) !timers;
      add_faros_counts p metrics;
      let st = Faros_query.Segment.stats writer in
      add p "query.segment_rows" (float st.st_rows);
      add p "query.peak_live_nodes" (float st.st_peak_live_nodes);
      add p "graph.nodes" (float (Faros_graph.Graph.node_count graph));
      add p "graph.edges" (float (Faros_graph.Graph.edge_count graph));
      add p "graph.flag_sites"
        (float (List.length (Faros_graph.Graph.flag_nodes graph)));
      add p "vm.guest_instrs" (float replay.replay_ticks);
      add p "os.syscalls" (float replay.replay_syscalls);
      add p "replay.diverged" (if replay.diverged then 1. else 0.))
    probe;
  {
    a_trace = trace;
    a_replay = replay;
    a_flagged = Core.Report.flagged (Core.Faros_plugin.report faros);
    a_slices = slices;
  }

(* The differential replays behind the replay-side layer split, on one
   recorded trace: bare replay, FAROS only, FAROS plus the streaming
   builder.  Each returns its wall time; hygiene is the caller's. *)
let replay_plain scn trace =
  snd (timed (fun () -> Faros_corpus.Scenario.replay_plain scn trace))

let replay_faros ?(builder = false) scn trace =
  let metrics = Faros_obs.Metrics.create () in
  let b =
    if builder then
      let b, _, _ = streaming_builder ~metrics ~run:"differential" in
      Some b
    else None
  in
  let faros_ref = ref None in
  snd
    (timed (fun () ->
         Faros_corpus.Scenario.replay_with scn
           ~plugins:(fun kernel ->
             fst (faros_plugins ~metrics ~builder:b faros_ref kernel))
           trace))

(* Sum of the layer times a probe holds for one answer, with the replay
   itself split by the differential ([replay_s] = FAROS+builder replay,
   which is vm + dift + graph build). *)
let layer_sum (p : probe) ~replay_s =
  List.fold_left (fun acc n -> acc +. get p n) replay_s
    [
      "replay.record_s"; "core.finalize_s"; "graph.enrich_s"; "query.segment_close_s";
      "query.ingest_s"; "query.run_graph_s"; "graph.slice_s";
    ]

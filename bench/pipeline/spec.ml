(* The benchmark's contract, as data: workloads, end-to-end metrics with
   their regression bounds, and per-layer metrics with the end-to-end
   metric each one should move.  BENCHMARK.json at the repository root
   mirrors these tables; test/test_pipeline.ml keeps the two equal. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type workload = { w_name : string; w_why : string }

let workloads =
  [
    {
      w_name = "tablev";
      w_why =
        "Table V FAROS-on replay of six looped programs: the vm/os/dift hot \
         path, bypassing graph, query and farm";
    };
    {
      w_name = "netd";
      w_why =
        "one analyst question on a 500-client server trace: syscall-heavy \
         replay, then enrich, segment, store and slice";
    };
    {
      w_name = "sweep1k";
      w_why =
        "a 1,093-sample campaign on 2 worker domains: farm scheduling, corpus \
         snapshot, per-job setup and many tiny enrich calls";
    };
    {
      w_name = "store";
      w_why =
        "read side of the query layer: ingest 39k segment rows in shuffled \
         order, slice every run, then cross-run queries";
    };
  ]

let workload_names = List.map (fun w -> w.w_name) workloads

(* End-to-end metrics are the same three names on every workload: what
   one op is differs per workload (a Table V replay pass, a netd answer,
   a campaign, a store session), so each workload's op time is its
   user-visible latency.  The gated op time is the lower quartile of the
   run's ops: on a shared host other tenants' load only ever adds time,
   in phases of seconds, so a run's median moves with the busy stretches
   it caught while its lower quartile tracks the code's own cost
   (README.md has the measured spreads).  [bound] is the share by which
   a metric's median over runs may worsen before it counts as a
   regression. *)
type e2e = { e_name : string; e_unit : string; e_better : better; e_bound : float }

let end_to_end =
  [
    { e_name = "setup_s"; e_unit = "s"; e_better = Lower; e_bound = 0.25 };
    { e_name = "op_p25_s"; e_unit = "s"; e_better = Lower; e_bound = 0.25 };
    { e_name = "peak_rss_mb"; e_unit = "MB"; e_better = Lower; e_bound = 0.20 };
  ]

(* A per-layer metric names the layer (a lib/ directory) before the dot.
   [l_moves] lists the end-to-end metrics it should move and on which
   workloads; a layer a workload bypasses reads 0 there. *)
type layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  l_moves : (string * string list) list;
}

let l ?(better = Lower) name unit moves =
  { l_name = name; l_unit = unit; l_better = better; l_moves = moves }

let per_layer =
  let op ws = ("op_p25_s", ws) and rss ws = ("peak_rss_mb", ws)
  and setup ws = ("setup_s", ws) in
  let replayers = [ "tablev"; "netd"; "sweep1k" ] and all = workload_names in
  [
    (* vm *)
    l "vm.replay_plain_s" "s" [ op [ "tablev"; "netd" ] ];
    l "vm.guest_instrs" "count" [ op replayers ];
    l "vm.ns_per_instr" "ns" [ op [ "tablev" ] ];
    l ~better:Higher "vm.tbcache.hit_rate" "ratio" [ op [ "tablev" ] ];
    l ~better:Higher "vm.tlb.hit_rate" "ratio" [ op [ "tablev" ] ];
    (* os *)
    l "os.syscalls" "count" [ op [ "netd" ] ];
    (* replay *)
    l "replay.record_s" "s" [ setup [ "tablev"; "netd" ]; op [ "netd"; "sweep1k" ] ];
    l "replay.diverged" "count" [ op replayers ];
    (* dift *)
    l "dift.self_s" "s" [ op [ "tablev" ] ];
    l "dift.slowdown" "x" [ op [ "tablev" ] ];
    l "dift.os_event_s" "s" [ op [ "netd"; "tablev" ] ];
    l ~better:Higher "dift.fastpath.hits" "count" [ op [ "tablev" ] ];
    l "dift.fastpath.misses" "count" [ op [ "tablev" ] ];
    l "dift.interned_provs" "count" [ op [ "tablev" ]; rss [ "tablev" ] ];
    l "dift.tainted_bytes" "count" [ op [ "tablev" ]; rss [ "tablev" ] ];
    l "dift.shadow_pages" "count" [ op [ "tablev" ]; rss [ "tablev" ] ];
    (* core *)
    l "core.finalize_s" "s" [ op [ "tablev"; "netd" ] ];
    l "core.loads_checked" "count" [ op replayers ];
    l "core.flags" "count" [ op replayers ];
    (* graph *)
    l "graph.build_s" "s" [ op [ "netd" ] ];
    l "graph.os_event_s" "s" [ op [ "netd" ] ];
    l "graph.enrich_s" "s" [ op [ "netd"; "sweep1k" ] ];
    l "graph.enrich_share" "ratio" [ op [ "netd"; "sweep1k" ] ];
    l "graph.slice_s" "s" [ op [ "netd"; "store" ] ];
    l "graph.nodes" "count" [ op [ "netd"; "store" ] ];
    l "graph.edges" "count" [ op [ "netd"; "store" ] ];
    l "graph.flag_sites" "count" [ op [ "netd"; "sweep1k" ] ];
    (* query *)
    l "query.segment_rows" "count" [ op [ "netd" ]; rss [ "netd" ] ];
    l "query.peak_live_nodes" "count" [ rss [ "netd" ] ];
    l "query.segment_close_s" "s" [ op [ "netd" ] ];
    l "query.ingest_s" "s" [ op [ "store"; "netd" ] ];
    l ~better:Higher "query.ingest_rows_per_s" "1/s" [ op [ "store" ] ];
    l "query.run_graph_s" "s" [ op [ "store"; "netd" ] ];
    l "query.origins_s" "s" [ op [ "store" ] ];
    l "query.flows_s" "s" [ op [ "store" ] ];
    l "query.merged_s" "s" [ op [ "store" ] ];
    (* farm *)
    l ~better:Higher "farm.utilization" "ratio" [ op [ "sweep1k" ] ];
    l "farm.idle_s" "s" [ op [ "sweep1k" ] ];
    l "farm.steals" "count" [ op [ "sweep1k" ] ];
    l "farm.peak_depth" "count" [ op [ "sweep1k" ] ];
    l ~better:Higher "farm.spawned" "count" [ op [ "sweep1k" ] ];
    l ~better:Higher "farm.speedup_j2" "x" [ op [ "sweep1k" ] ];
    l ~better:Higher "farm.samples_per_s" "1/s" [ op [ "sweep1k" ] ];
    l "farm.verdict_p50_ms" "ms" [ op [ "sweep1k" ] ];
    l "farm.verdict_p99_ms" "ms" [ op [ "sweep1k" ] ];
    (* corpus *)
    l "corpus.build_s" "s" [ setup [ "sweep1k" ] ];
    l ~better:Higher "corpus.snapshot.hits" "count" [ setup [ "sweep1k" ] ];
    l "corpus.snapshot.misses" "count" [ setup [ "sweep1k" ] ];
    l "corpus.snapshot.late_builds" "count" [ op [ "sweep1k" ] ];
    (* gc *)
    l "gc.minor_collections" "count" [ op all ];
    l "gc.major_collections" "count" [ op all ];
    l "gc.promoted_mwords" "Mword" [ op all; rss all ];
    (* the traced run itself: these qualify the per-layer split of the
       op rather than move it *)
    l "trace.overhead" "x" [ op all ];
    l ~better:Higher "trace.layer_sum_ratio" "ratio" [ op [ "tablev"; "netd"; "sweep1k" ] ];
  ]

let find_e2e name = List.find_opt (fun e -> e.e_name = name) end_to_end

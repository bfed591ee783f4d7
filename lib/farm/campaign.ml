(* The corpus-campaign driver: FAROS's evaluation (Tables II-IV) as one
   embarrassingly-parallel workload.

   Every sample is one job of a {!Pool.map}: install a fresh provenance
   store (per-job isolation — see the domain-safety contract in
   docs/farm.md), analyze under the given config with a tick budget and a
   wall-clock deadline, and reduce the outcome to plain data (strings and
   ints — nothing that refers back to the job's interner or kernel).  A
   raising sample becomes an [Error] verdict, a deadline overrun becomes
   [Timeout]; neither aborts the campaign.

   Results come back in submission order regardless of completion order
   (the pool hands them back in input order), so verdicts, the mismatch
   list and the merged metrics registry are deterministic for a given
   corpus — byte-identical across worker counts.

   Observability rides the same one-way data flow.  Each job owns its
   whole instrumentation state — a private span profiler and a private
   bounded sink whose trace rows carry worker/guest pid lanes — and ships
   it back as part of its plain-data result; the driver then merges
   profiles and sinks and streams everything onto the unified JSONL sink,
   all single-threaded and in submission order.  Nothing mutable is ever
   shared between a worker domain and the driver while a job runs. *)

type verdict = Flagged | Clean | Error of string | Timeout

let verdict_name = function
  | Flagged -> "flagged"
  | Clean -> "clean"
  | Error _ -> "error"
  | Timeout -> "timeout"

let verdict_detail = function
  | Error msg -> msg
  | Flagged | Clean | Timeout -> ""

type job_result = {
  jr_id : string;
  jr_family : string;
  jr_category : string;  (* rendered Registry.category *)
  jr_expected_flag : bool;
  jr_verdict : verdict;
  jr_diverged : bool;
  jr_mismatch : bool;
  jr_record_ticks : int;
  jr_replay_ticks : int;
  jr_tick_budget : int;  (* the effective cap: --tick-budget override, or
     the scenario's own max_ticks *)
  jr_budget_exhausted : bool;  (* some phase ran into the cap — the run
     was truncated, not naturally finished *)
  jr_syscalls : int;
  jr_tainted_bytes : int;
  jr_interned_provs : int;
  (* attack-graph summary (zeros when the graph is disabled or the job
     produced no verdict) *)
  jr_graph_nodes : int;
  jr_graph_edges : int;
  jr_flag_sites : int;
  jr_slice_nodes : int;  (* union over all whodunit slices *)
  jr_slice_origins : int;
  jr_netflow_origin : bool;  (* some slice reached a NetFlow origin *)
  jr_wall_s : float;
  jr_worker : int;  (* pool worker index that ran the job; -1 if unknown *)
  jr_metrics : Faros_obs.Metrics.t;  (* this job's private registry *)
  jr_profile : Faros_obs.Profile.t;  (* this job's span tree (or disabled) *)
  jr_sink : Faros_obs.Sink.t;  (* this job's trace rows (or null) *)
  jr_segments : string list;  (* graph segment JSONL rows (graph_segments
     runs only) — plain strings, written driver-side in submission order *)
}

type t = {
  results : job_result list;  (* submission (registry) order *)
  mismatches : string list;  (* ids, submission order *)
  workers : int;
  spawned : int;  (* domains actually spawned (host cap) *)
  peak_depth : int;  (* the job count: every job is queued before the first runs *)
  worker_stats : Pool.worker_stat list;  (* per-worker, index order *)
  wall_s : float;
  metrics : Faros_obs.Metrics.t;  (* all job registries merged *)
  profile : Faros_obs.Profile.t;  (* all job profiles merged (or disabled) *)
}

(* -- id filtering -------------------------------------------------------- *)

(* Shell-style glob over sample ids: [*] any run, [?] any one char. *)
let glob_match ~pat s =
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pat.[i] with
      | '*' -> go (i + 1) j || (j < ns && go i (j + 1))
      | '?' -> j < ns && go (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let filter ~glob samples =
  List.filter
    (fun (s : Faros_corpus.Registry.sample) -> glob_match ~pat:glob s.id)
    samples

(* -- one job ------------------------------------------------------------- *)

let mismatch ~expected_flag ~diverged = function
  | Error _ | Timeout -> true  (* the sample produced no verdict: never ok *)
  | Flagged -> diverged || not expected_flag
  | Clean -> diverged || expected_flag

(* The per-sample attack-graph summary carried into JSON/CSV exports.
   Plain ints/bools only — nothing referring back to the job's graph. *)
type graph_summary = {
  gs_nodes : int;
  gs_edges : int;
  gs_flag_sites : int;
  gs_slice_nodes : int;
  gs_slice_origins : int;
  gs_netflow_origin : bool;
}

let no_graph =
  {
    gs_nodes = 0;
    gs_edges = 0;
    gs_flag_sites = 0;
    gs_slice_nodes = 0;
    gs_slice_origins = 0;
    gs_netflow_origin = false;
  }

let summarize_graph g =
  let slices = Faros_graph.Slice.slices g in
  (* Hashtbl unions: the List.mem version was quadratic in slice size,
     which graph.enrich turned into real time on 8k-node server graphs. *)
  let union = Hashtbl.create 256 and origins = Hashtbl.create 64 in
  List.iter
    (fun (s : Faros_graph.Slice.t) ->
      List.iter (fun id -> Hashtbl.replace union id ()) s.sl_nodes;
      List.iter
        (fun (o : Faros_graph.Graph.node) -> Hashtbl.replace origins o.n_id ())
        s.sl_origins)
    slices;
  {
    gs_nodes = Faros_graph.Graph.node_count g;
    gs_edges = Faros_graph.Graph.edge_count g;
    gs_flag_sites = List.length (Faros_graph.Graph.flag_nodes g);
    gs_slice_nodes = Hashtbl.length union;
    gs_slice_origins = Hashtbl.length origins;
    gs_netflow_origin = List.exists Faros_graph.Slice.has_netflow_origin slices;
  }

(* Per-job sinks stay small on purpose: a campaign over 130 samples folds
   every surviving row into the campaign stream, so the per-job cap — not
   the campaign cap — bounds the volume.  What a job drops past it is
   counted, and the count travels with the sink. *)
let job_trace_limit = 4096

(* A job's result.  The measured fields default to zero, which is what a
   job that produced no verdict reports. *)
let job_result ~tick_budget (s : Faros_corpus.Registry.sample) ~worker
    ~wall_s ~metrics ~profile ~sink ?(diverged = false) ?(record_ticks = 0)
    ?(replay_ticks = 0) ?(syscalls = 0) ?(tainted_bytes = 0) ?(interned = 0)
    ?(gs = no_graph) ?(segments = []) verdict =
  let expected_flag = s.expected = Faros_corpus.Registry.Expect_flag in
  (* The cap actually in force, for the exports: long-running server
     scenarios are judged against it (budget_exhausted means the run was
     truncated, whatever the verdict says). *)
  let budget =
    Option.value tick_budget ~default:s.scenario.Faros_corpus.Scenario.max_ticks
  in
  {
    jr_id = s.id;
    jr_family = s.family;
    jr_category = Fmt.str "%a" Faros_corpus.Registry.pp_category s.category;
    jr_expected_flag = expected_flag;
    jr_verdict = verdict;
    jr_diverged = diverged;
    jr_mismatch = mismatch ~expected_flag ~diverged verdict;
    jr_record_ticks = record_ticks;
    jr_replay_ticks = replay_ticks;
    jr_tick_budget = budget;
    jr_budget_exhausted = record_ticks >= budget || replay_ticks >= budget;
    jr_syscalls = syscalls;
    jr_tainted_bytes = tainted_bytes;
    jr_interned_provs = interned;
    jr_graph_nodes = gs.gs_nodes;
    jr_graph_edges = gs.gs_edges;
    jr_flag_sites = gs.gs_flag_sites;
    jr_slice_nodes = gs.gs_slice_nodes;
    jr_slice_origins = gs.gs_slice_origins;
    jr_netflow_origin = gs.gs_netflow_origin;
    jr_wall_s = wall_s;
    jr_worker = worker;
    jr_metrics = metrics;
    jr_profile = profile;
    jr_sink = sink;
    jr_segments = segments;
  }

let run_job ~config ~graph_segments ~tick_budget ~deadline ~profile
    ~want_trace ~worker (s : Faros_corpus.Registry.sample) =
  let prof =
    if profile then Faros_obs.Profile.create () else Faros_obs.Profile.disabled
  in
  (* Per-job isolation: this worker domain gets a fresh interner, so no
     provenance state is shared with any concurrently running job (or any
     previous job on this worker). *)
  Faros_obs.Profile.with_span prof "farm.job.setup" (fun () ->
      Faros_dift.Provenance.set_store (Faros_dift.Provenance.create_store ()));
  let sink =
    if want_trace then
      Faros_obs.Sink.create ~limit:job_trace_limit ~sample:s.id ~worker ()
    else Faros_obs.Sink.null
  in
  let metrics = Faros_obs.Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let finish = job_result ~tick_budget s ~worker ~metrics ~profile:prof ~sink in
  let builder = ref None in
  let seg = ref None in
  let extra_plugins kernel faros =
    (* With graph_segments, the builder's delta stream additionally feeds
       a segment writer spilling JSONL rows into a private buffer; the
       rows ship back as plain strings and the driver writes them out in
       submission order. *)
    let consumer =
      if graph_segments then begin
        let rows = Faros_obs.Sink.create () in
        let w = Faros_query.Segment.writer ~sink:rows ~run:s.id () in
        seg := Some (rows, w);
        Some (Faros_query.Segment.consume w)
      end
      else None
    in
    let b = Faros_graph.Build.create ~metrics ?consumer ~sample:s.id () in
    builder := Some b;
    [ Faros_graph.Build.plugin b ~kernel ~faros ]
  in
  match
    (* Graph enrichment runs inside the [farm.job.run] span too, so its
       [graph.enrich] span nests under the job like everything else. *)
    Faros_obs.Profile.with_span prof "farm.job.run" (fun () ->
        let outcome =
          Faros_corpus.Scenario.analyze ~config ~metrics ~sink ~profile:prof
            ?max_ticks:tick_budget ?deadline ~extra_plugins s.scenario
        in
        (* the replay built the plugins, so the builder exists *)
        let b = Option.get !builder in
        Faros_graph.Build.enrich b outcome.faros;
        let gs = summarize_graph (Faros_graph.Build.graph b) in
        let segments =
          match !seg with
          | None -> []
          | Some (rows, w) ->
            Faros_query.Segment.close w;
            Faros_obs.Sink.lines rows
        in
        (outcome, gs, segments))
  with
  | outcome, gs, segments ->
    let stats = Faros_dift.Engine.stats outcome.faros.engine in
    finish ~wall_s:(elapsed ()) ~diverged:outcome.replay.diverged
      ~record_ticks:outcome.record_ticks
      ~replay_ticks:outcome.replay.replay_ticks
      ~syscalls:outcome.replay.replay_syscalls
      ~tainted_bytes:stats.tainted_bytes
      ~interned:
        (Faros_dift.Provenance.store_interned_count
           outcome.faros.engine.interner)
      ~gs ~segments
      (if Core.Report.flagged outcome.report then Flagged else Clean)
  | exception Core.Analysis.Deadline_exceeded ->
    finish ~wall_s:(elapsed ()) Timeout
  | exception e -> finish ~wall_s:(elapsed ()) (Error (Printexc.to_string e))

(* -- the campaign -------------------------------------------------------- *)

(* Driver-side farm gauges.  Registered only on request ([farm_metrics]):
   the per-worker values depend on worker count and wall time, and the
   default merged registry stays byte-identical across [-j N] — the
   serial/parallel equivalence contract. *)
let publish_farm_metrics ~workers ~spawned ~peak_depth ~worker_stats ~results
    metrics =
  let g name v = Faros_obs.Metrics.set (Faros_obs.Metrics.gauge metrics name) v in
  g "farm.workers.requested" workers;
  g "farm.workers.spawned" spawned;
  g "farm.queue.peak_depth" peak_depth;
  List.iteri
    (fun i (ws : Pool.worker_stat) ->
      g (Printf.sprintf "farm.worker.%d.jobs" i) ws.ws_jobs;
      g (Printf.sprintf "farm.worker.%d.busy_us" i) (ws.ws_busy_ns / 1000);
      g (Printf.sprintf "farm.worker.%d.idle_us" i) (ws.ws_idle_ns / 1000))
    worker_stats;
  (* The shared-snapshot health: late builds > 0 would mean corpora are
     being constructed inside jobs, defeating the sharing. *)
  let ss = Faros_corpus.Snapshot.stats () in
  g "corpus.snapshot.images" ss.ss_images;
  g "corpus.snapshot.blobs" ss.ss_blobs;
  g "corpus.snapshot.hits" ss.ss_hits;
  g "corpus.snapshot.misses" ss.ss_misses;
  g "corpus.snapshot.late_builds" ss.ss_late_builds;
  let wall = Faros_obs.Metrics.histogram metrics "farm.job.wall_us" in
  List.iter
    (fun r ->
      Faros_obs.Metrics.observe wall (int_of_float (r.jr_wall_s *. 1e6)))
    results

(* Stream one completed campaign onto the JSONL sink, in submission
   order: per-job lifecycle, the job's own sink (its trace rows and its
   drop count), one series point, the graph flag summary for flagged
   jobs; then the merged profile's spans; then — after the stream-health
   gauges are frozen into the registry — the final metric snapshot.  All
   driver-side: a job's sink is handed over only once the job is done. *)
let emit_sink sink ~results ~profile ~metrics =
  let series_columns =
    [
      "record_ticks"; "replay_ticks"; "syscalls"; "tainted_bytes";
      "interned_provs"; "graph_nodes"; "graph_edges";
    ]
  in
  List.iter
    (fun r ->
      let life event = Faros_obs.Sink.job_lifecycle sink ~job:r.jr_id ~worker:r.jr_worker ~event in
      life "submit" ();
      life "start" ();
      life "finish" ~verdict:(verdict_name r.jr_verdict) ~wall_s:r.jr_wall_s ();
      Faros_obs.Sink.merge ~into:sink r.jr_sink;
      Faros_obs.Sink.series_point sink ~sample:r.jr_id ~columns:series_columns
        ~row:
          [|
            r.jr_record_ticks; r.jr_replay_ticks; r.jr_syscalls;
            r.jr_tainted_bytes; r.jr_interned_provs; r.jr_graph_nodes;
            r.jr_graph_edges;
          |];
      if r.jr_verdict = Flagged then
        Faros_obs.Sink.graph_flag sink ~sample:r.jr_id
          ~flag_sites:r.jr_flag_sites ~nodes:r.jr_graph_nodes
          ~edges:r.jr_graph_edges ~slice_nodes:r.jr_slice_nodes
          ~slice_origins:r.jr_slice_origins
          ~netflow_origin:r.jr_netflow_origin)
    results;
  List.iter
    (fun sp -> Faros_obs.Sink.profile_span sink ~source:"campaign" sp)
    (Faros_obs.Profile.spans profile);
  (* Freeze the stream's own health into the registry before the final
     snapshot; the snapshot line itself is by construction not counted. *)
  let g name v = Faros_obs.Metrics.set (Faros_obs.Metrics.gauge metrics name) v in
  g "obs.sink.events" (Faros_obs.Sink.events sink);
  g "obs.sink.dropped" (Faros_obs.Sink.dropped sink);
  Faros_obs.Sink.metric_snapshot sink ~source:"campaign" metrics

let run ?(workers = 1) ?(config = Core.Config.default)
    ?(graph_segments = false) ?tick_budget ?deadline ?(profile = false)
    ?(sink = Faros_obs.Sink.null) ?(farm_metrics = false) ?on_progress
    samples =
  let t0 = Unix.gettimeofday () in
  let want_trace = Faros_obs.Sink.enabled sink in
  let total = List.length samples in
  (* Freeze the shared corpus snapshot before any domain exists: from
     here on the artifact tables are read-only, so the scenario values
     the job closures capture can be shared across workers without any
     synchronization.  Per-job setup is then tag-store instancing only. *)
  Faros_corpus.Snapshot.freeze ();
  let completed = ref 0 in
  let on_result (s : Faros_corpus.Registry.sample) outcome =
    let r =
      match outcome with
      | Ok r -> r
      | Error e ->
        (* run_job contains its own exception barrier, so this only fires
           on failures outside it; record, don't abort. *)
        job_result ~tick_budget s ~worker:(-1) ~wall_s:0.0
          ~metrics:(Faros_obs.Metrics.create ())
          ~profile:Faros_obs.Profile.disabled ~sink:Faros_obs.Sink.null
          (Error (Printexc.to_string e))
    in
    incr completed;
    Option.iter (fun f -> f ~completed:!completed ~total r) on_progress;
    r
  in
  let results, worker_stats =
    Pool.map ~workers ~on_result
      (fun ~worker s ->
        run_job ~config ~graph_segments ~tick_budget ~deadline ~profile
          ~want_trace ~worker s)
      samples
  in
  let spawned = List.length worker_stats in
  (* Every job is queued before the first one runs. *)
  let peak_depth = total in
  let cam_profile =
    if profile then Faros_obs.Profile.create () else Faros_obs.Profile.disabled
  in
  let metrics = Faros_obs.Metrics.create () in
  (* Merging is itself accounted work: the one driver-side span. *)
  Faros_obs.Profile.with_span cam_profile "farm.merge" (fun () ->
      List.iter
        (fun r ->
          Faros_obs.Metrics.merge ~into:metrics r.jr_metrics;
          Faros_obs.Profile.merge ~into:cam_profile r.jr_profile)
        results);
  if farm_metrics then
    publish_farm_metrics ~workers ~spawned ~peak_depth ~worker_stats ~results
      metrics;
  if Faros_obs.Sink.enabled sink then
    emit_sink sink ~results ~profile:cam_profile ~metrics;
  {
    results;
    mismatches = List.filter_map (fun r -> if r.jr_mismatch then Some r.jr_id else None) results;
    workers;
    spawned;
    peak_depth;
    worker_stats;
    wall_s = Unix.gettimeofday () -. t0;
    metrics;
    profile = cam_profile;
  }

let ok t = t.mismatches = []

(* -- the verdict matrix (Tables II-IV) ----------------------------------- *)

type matrix_row = {
  mr_category : string;
  mr_samples : int;
  mr_flagged : int;
  mr_clean : int;
  mr_errors : int;
  mr_timeouts : int;
  mr_mismatches : int;
}

let matrix t =
  let tbl : (string, matrix_row) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let row =
        match Hashtbl.find_opt tbl r.jr_category with
        | Some row -> row
        | None ->
          {
            mr_category = r.jr_category;
            mr_samples = 0;
            mr_flagged = 0;
            mr_clean = 0;
            mr_errors = 0;
            mr_timeouts = 0;
            mr_mismatches = 0;
          }
      in
      let bump b = if b then 1 else 0 in
      Hashtbl.replace tbl r.jr_category
        {
          row with
          mr_samples = row.mr_samples + 1;
          mr_flagged = row.mr_flagged + bump (r.jr_verdict = Flagged);
          mr_clean = row.mr_clean + bump (r.jr_verdict = Clean);
          mr_errors =
            (row.mr_errors
            + bump (match r.jr_verdict with Error _ -> true | _ -> false));
          mr_timeouts = row.mr_timeouts + bump (r.jr_verdict = Timeout);
          mr_mismatches = row.mr_mismatches + bump r.jr_mismatch;
        })
    t.results;
  Hashtbl.fold (fun _ row acc -> row :: acc) tbl []
  |> List.sort (fun a b -> compare a.mr_category b.mr_category)

(* -- export -------------------------------------------------------------- *)

module Json = Faros_obs.Json

(* A result's fields, in export order, for the JSON results and the CSV
   rows alike.  New fields ride at the end, so positional consumers of
   the older layout (CSV field indices, cram projections) keep working. *)
let result_fields : (string * (job_result -> Json.t)) list =
  [
    ("id", fun r -> Str r.jr_id);
    ("family", fun r -> Str r.jr_family);
    ("category", fun r -> Str r.jr_category);
    ("expected", fun r -> Str (if r.jr_expected_flag then "flag" else "clean"));
    ("verdict", fun r -> Str (verdict_name r.jr_verdict));
    ("detail", fun r -> Str (verdict_detail r.jr_verdict));
    ("diverged", fun r -> Bool r.jr_diverged);
    ("mismatch", fun r -> Bool r.jr_mismatch);
    ("record_ticks", fun r -> Int r.jr_record_ticks);
    ("replay_ticks", fun r -> Int r.jr_replay_ticks);
    ("syscalls", fun r -> Int r.jr_syscalls);
    ("tainted_bytes", fun r -> Int r.jr_tainted_bytes);
    ("interned_provs", fun r -> Int r.jr_interned_provs);
    ("graph_nodes", fun r -> Int r.jr_graph_nodes);
    ("graph_edges", fun r -> Int r.jr_graph_edges);
    ("flag_sites", fun r -> Int r.jr_flag_sites);
    ("slice_nodes", fun r -> Int r.jr_slice_nodes);
    ("slice_origins", fun r -> Int r.jr_slice_origins);
    ("netflow_origin", fun r -> Bool r.jr_netflow_origin);
    ("worker", fun r -> Int r.jr_worker);
    ("wall_s", fun r -> Float r.jr_wall_s);
    ("tick_budget", fun r -> Int r.jr_tick_budget);
    ("budget_exhausted", fun r -> Bool r.jr_budget_exhausted);
  ]

let matrix_row_json row : Json.t =
  Obj
    [ ("category", Str row.mr_category); ("samples", Int row.mr_samples);
      ("flagged", Int row.mr_flagged); ("clean", Int row.mr_clean);
      ("errors", Int row.mr_errors); ("timeouts", Int row.mr_timeouts);
      ("mismatches", Int row.mr_mismatches) ]

let worker_stat_json i (ws : Pool.worker_stat) : Json.t =
  Obj
    [ ("worker", Int i); ("jobs", Int ws.ws_jobs); ("busy_us", Int (ws.ws_busy_ns / 1000));
      ("idle_us", Int (ws.ws_idle_ns / 1000)) ]

let to_json t : Json.t =
  let result r = Json.Obj (List.map (fun (k, f) -> (k, f r)) result_fields) in
  let profile =
    if Faros_obs.Profile.enabled t.profile then
      [ ("profile", Faros_obs.Profile.to_json t.profile) ]
    else []
  in
  Obj
    [ ( "campaign",
        Obj
          ([ ("workers", Json.Int t.workers); ("spawned", Int t.spawned);
             ("peak_queue_depth", Int t.peak_depth); ("samples", Int (List.length t.results));
             ("mismatch_count", Int (List.length t.mismatches)); ("wall_s", Float t.wall_s);
             ("worker_stats", List (List.mapi worker_stat_json t.worker_stats));
             ("matrix", List (List.map matrix_row_json (matrix t)));
             ("results", List (List.map result t.results));
             ("mismatches", List (List.map (fun id -> Json.Str id) t.mismatches));
             ("metrics", Faros_obs.Metrics.to_json t.metrics) ]
          @ profile) ) ]

(* CSV field quoting: wrap and double inner quotes when the field carries
   a delimiter (error details can contain anything). *)
let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

(* The CSV leaves out [worker], the one field that depends on [-j]: a
   string cell is quoted as needed and any other cell is its JSON text. *)
let to_csv t =
  let fields = List.filter (fun (k, _) -> k <> "worker") result_fields in
  let cell r (_, f) =
    match f r with Json.Str s -> csv_field s | v -> Json.to_string v
  in
  let row r = String.concat "," (List.map (cell r) fields) in
  String.concat "\n" (String.concat "," (List.map fst fields) :: List.map row t.results)
  ^ "\n"

(* -- rendering ----------------------------------------------------------- *)

let pp_matrix ppf t =
  Fmt.pf ppf "%-36s %8s %8s %8s %7s %8s %10s@." "category" "samples" "flagged"
    "clean" "error" "timeout" "mismatches";
  List.iter
    (fun row ->
      Fmt.pf ppf "%-36s %8d %8d %8d %7d %8d %10d@." row.mr_category
        row.mr_samples row.mr_flagged row.mr_clean row.mr_errors
        row.mr_timeouts row.mr_mismatches)
    (matrix t)

let pp_summary ppf t =
  Fmt.pf ppf "%d samples, %d mismatches@." (List.length t.results)
    (List.length t.mismatches);
  List.iter (Fmt.pf ppf "  mismatch: %s@.") t.mismatches

(* The utilization breakdown `campaign -j N --profile/--stats` appends:
   all-idle workers mean the corpus is too small or too serial for N,
   all-busy workers mean the time goes to real work — read the hotspot
   table next. *)
let pp_workers ppf t =
  Fmt.pf ppf "workers: %d requested, %d spawned, peak queue depth %d@."
    t.workers t.spawned t.peak_depth;
  List.iteri
    (fun i (ws : Pool.worker_stat) ->
      let busy = float_of_int ws.ws_busy_ns /. 1e9 in
      let idle = float_of_int ws.ws_idle_ns /. 1e9 in
      let util =
        if busy +. idle > 0. then 100. *. busy /. (busy +. idle) else 0.
      in
      Fmt.pf ppf
        "  worker %d: %4d jobs  %8.2fs busy  %8.2fs idle  %5.1f%% busy@."
        i ws.ws_jobs busy idle util)
    t.worker_stats

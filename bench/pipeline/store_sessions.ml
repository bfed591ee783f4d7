(* store: the read side of the query layer.  Set-up produces the graph
   segment rows of a sweep1k campaign; one op is an analyst session over
   them: a fresh store ingests every row in the seed's order, every run
   is rebuilt and sliced, then the cross-run queries run.  The store
   promises order-insensitive ingestion, so every session, under every
   seed, must give the fingerprint of the registry-order ingest.

   Every seed, 0 included, ingests a shuffled order: rows in registry
   order ingest about 20% faster than any shuffle, and seed 0 would
   otherwise stand apart from every other seed. *)

open Harness

(* One session; returns whether the answers are sane (every run
   complete; slices, origins and flows found) and its fingerprint. *)
let session ?probe rows =
  let store = Faros_query.Store.create () in
  let timed_ok what name f = ok_exn what (phase probe name f) in
  let fresh_rows =
    timed_ok "ingest" "query.ingest_s" (fun () ->
        Faros_query.Store.ingest_lines store rows)
  in
  let slices = ref 0 and nodes = ref 0 and edges = ref 0 in
  List.iter
    (fun run ->
      let g =
        timed_ok "run_graph" "query.run_graph_s" (fun () ->
            Faros_query.Store.run_graph store run)
      in
      let s = phase probe "graph.slice_s" (fun () -> Faros_graph.Slice.slices g) in
      slices := !slices + List.length s;
      nodes := !nodes + Faros_graph.Graph.node_count g;
      edges := !edges + Faros_graph.Graph.edge_count g)
    (Faros_query.Store.runs store);
  let origins =
    timed_ok "origins" "query.origins_s" (fun () -> Faros_query.Store.origins store)
  in
  let flows =
    timed_ok "flows" "query.flows_s" (fun () ->
        Faros_query.Store.flows store ~spec:"4444")
  in
  let merged =
    timed_ok "merged" "query.merged_s" (fun () -> Faros_query.Store.merged_graph store)
  in
  Option.iter
    (fun p ->
      add p "query.ingest_rows_per_s"
        (ratio (float (List.length rows)) (get p "query.ingest_s"));
      add p "graph.nodes" (float !nodes);
      add p "graph.edges" (float !edges))
    probe;
  let t = Faros_query.Store.totals store in
  ( t.t_complete = t.t_runs && !slices > 0 && origins <> [] && flows <> [],
    Printf.sprintf
      "rows=%d new=%d runs=%d complete=%d dups=%d nodes=%d edges=%d \
       flag_runs=%d slices=%d graph=%d/%d origins=%d flows=%d merged=%d"
      (List.length rows) fresh_rows t.t_runs t.t_complete t.t_dups t.t_nodes
      t.t_edges t.t_flag_runs !slices !nodes !edges (List.length origins)
      (List.length flows)
      (Faros_graph.Graph.node_count merged) )

(* Set-up: the segment rows of a graph_segments campaign over the corpus
   built cold, in registry order. *)
let segment_rows () =
  Faros_corpus.Snapshot.reset_for_tests ();
  let c =
    Faros_farm.Campaign.run ~workers:Sweep1k.workers ~graph_segments:true
      (Faros_corpus.Registry.sweep1k ())
  in
  if not (Sweep1k.check c) then failwith "segment campaign failed";
  ( List.concat_map (fun (r : Faros_farm.Campaign.job_result) -> r.jr_segments) c.results,
    c.spawned )

let run ~seed ~seconds ~trace =
  let (registry_rows, spawned), setup_s = setup_median ~k:3 segment_rows in
  let rows = Stats.shuffle ~seed:(seed + 1) registry_rows in
  fresh ();
  let sane, reference = session registry_rows in
  let l =
    loop ~seconds ~trace (fun probe -> snd (session ?probe rows) = reference)
  in
  let layers = median_readings l.readings in
  if trace then begin
    let sum =
      List.fold_left (fun acc n -> acc +. get layers n) 0.
        [
          "query.ingest_s"; "query.run_graph_s"; "graph.slice_s";
          "query.origins_s"; "query.flows_s"; "query.merged_s";
        ]
    in
    finish_trace l layers ~layer_sum:sum ~traced_s:(Stats.median l.traced)
  end;
  {
    r_setup_s = setup_s;
    r_loop = l;
    r_layers = layers;
    r_spawned = spawned;
    r_checks = [ ("store reference session", sane) ];
  }

(* Streaming forensic store tests: segment round-trips back to the exact
   resident graph, the store's merge is commutative and idempotent under
   row shuffles, campaign-shipped segments equal locally-written ones,
   and the 2000-connection acceptance sample stays bounded-memory. *)

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let sample id =
  match Faros_corpus.Registry.find id with
  | Some s -> s
  | None -> Alcotest.failf "unknown sample %s" id

(* One analysis, two consumers: the resident graph and the segment
   writer.  Returns the resident graph, the JSONL rows and the writer's
   stats. *)
let dual_build (s : Faros_corpus.Registry.sample) =
  let sink = Faros_obs.Sink.create () in
  let builder = ref None in
  let writer = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let w = Faros_query.Segment.writer ~sink ~run:s.id () in
        writer := Some w;
        let b =
          Faros_graph.Build.create
            ~consumer:(Faros_query.Segment.consume w)
            ~sample:s.id ()
        in
        builder := Some b;
        [ Faros_graph.Build.plugin b ~kernel ~faros ])
      s.scenario
  in
  let b = Option.get !builder and w = Option.get !writer in
  Faros_graph.Build.enrich b outcome.faros;
  Faros_query.Segment.close w;
  ( Faros_graph.Build.graph b,
    Faros_obs.Sink.lines sink,
    Faros_query.Segment.stats w,
    outcome )

(* Streaming-only: no resident graph at all — the bounded-memory path. *)
let stream_build (s : Faros_corpus.Registry.sample) =
  let sink = Faros_obs.Sink.create () in
  let builder = ref None in
  let writer = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let w = Faros_query.Segment.writer ~sink ~run:s.id () in
        writer := Some w;
        let b =
          Faros_graph.Build.create ~resident:false
            ~consumer:(Faros_query.Segment.consume w)
            ~sample:s.id ()
        in
        builder := Some b;
        [ Faros_graph.Build.plugin b ~kernel ~faros ])
      s.scenario
  in
  let b = Option.get !builder and w = Option.get !writer in
  Faros_graph.Build.enrich b outcome.faros;
  Faros_query.Segment.close w;
  (Faros_obs.Sink.lines sink, Faros_query.Segment.stats w, outcome)

let store_of_lines lines =
  let st = Faros_query.Store.create () in
  match Faros_query.Store.ingest_lines st lines with
  | Ok _ -> st
  | Error e -> Alcotest.failf "ingest: %s" e

let run_graph_exn st run =
  match Faros_query.Store.run_graph st run with
  | Ok g -> g
  | Error e -> Alcotest.failf "reconstruct %s: %s" run e

(* The whodunit answer as text — what `faros graph` and `faros query`
   both print. *)
let slice_text g =
  let b = Buffer.create 256 in
  List.iter
    (fun (s : Faros_graph.Slice.t) ->
      Buffer.add_string b
        (Printf.sprintf "%s <- %d node(s), %d origin(s)\n"
           (Faros_graph.Graph.node_label s.sl_flag)
           (List.length s.sl_nodes)
           (List.length s.sl_origins));
      List.iter
        (fun chain ->
          Buffer.add_string b
            ("  " ^ Faros_graph.Slice.render_chain chain ^ "\n"))
        s.sl_chains)
    (Faros_graph.Slice.slices g);
  Buffer.contents b

let export g =
  Faros_graph.Export.to_json ~slices:(Faros_graph.Slice.slices g) g
  ^ Faros_graph.Export.to_dot g

(* Deterministic shuffle: a seeded LCG, so failures reproduce. *)
let shuffle seed l =
  let a = Array.of_list l in
  let state = ref (seed land 0x3FFFFFFF) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* -- per-run round trips --------------------------------------------------- *)

let roundtrip_tests =
  List.map
    (fun id ->
      Alcotest.test_case (id ^ ": segment stream round-trips") `Quick
        (fun () ->
          let g, lines, st, _ = dual_build (sample id) in
          check_b "rows written" true (lines <> []);
          check_b "peak bounded by totals" true
            (st.st_peak_live_nodes <= Faros_graph.Graph.node_count g);
          let store = store_of_lines lines in
          let g' = run_graph_exn store id in
          check "nodes" (Faros_graph.Graph.node_count g)
            (Faros_graph.Graph.node_count g');
          check "edges" (Faros_graph.Graph.edge_count g)
            (Faros_graph.Graph.edge_count g');
          check_s "export byte-identical" (export g) (export g');
          check_s "slices byte-identical" (slice_text g) (slice_text g')))
    [
      "reflective_dll_inject";
      "process_hollowing";
      "darkcomet_injection";
      "reflective_dll_inject_transient";
      "netd_staged_c2";
    ]

(* -- the store's merge laws ------------------------------------------------ *)

let merge_tests =
  [
    Alcotest.test_case "shuffled + duplicated ingest is byte-identical"
      `Quick (fun () ->
        let _, l1, _, _ = dual_build (sample "reflective_dll_inject") in
        let _, l2, _, _ = dual_build (sample "darkcomet_injection") in
        let lines = l1 @ l2 in
        let reference = store_of_lines lines in
        let ref_text =
          slice_text (run_graph_exn reference "reflective_dll_inject")
          ^ slice_text (run_graph_exn reference "darkcomet_injection")
          ^ export (Result.get_ok (Faros_query.Store.merged_graph reference))
        in
        let prop =
          QCheck.Test.make ~name:"merge commutes and dedups" ~count:25
            QCheck.(pair small_int small_int)
            (fun (seed, dup) ->
              (* any interleaving of the two runs' rows, with a prefix
                 re-ingested on top: same store, same bytes out *)
              let shuffled = shuffle (seed + 1) lines in
              let dups =
                List.filteri (fun i _ -> i mod (1 + (dup mod 7)) = 0) shuffled
              in
              let st = store_of_lines (shuffled @ dups) in
              let text =
                slice_text (run_graph_exn st "reflective_dll_inject")
                ^ slice_text (run_graph_exn st "darkcomet_injection")
                ^ export (Result.get_ok (Faros_query.Store.merged_graph st))
              in
              text = ref_text
              && (Faros_query.Store.totals st).t_dups = List.length dups)
        in
        QCheck.Test.check_exn prop);
    Alcotest.test_case "re-ingesting a whole file is a no-op" `Quick
      (fun () ->
        let _, lines, _, _ = dual_build (sample "process_hollowing") in
        let st = store_of_lines lines in
        let t1 = Faros_query.Store.totals st in
        (match Faros_query.Store.ingest_lines st lines with
        | Ok fresh -> check "no fresh rows" 0 fresh
        | Error e -> Alcotest.failf "re-ingest: %s" e);
        let t2 = Faros_query.Store.totals st in
        check "nodes unchanged" t1.t_nodes t2.t_nodes;
        check "edges unchanged" t1.t_edges t2.t_edges);
    Alcotest.test_case "malformed line reports its number" `Quick (fun () ->
        let st = Faros_query.Store.create () in
        match Faros_query.Store.ingest_lines st [ "{\"v\":1}"; "{nope" ] with
        | Ok _ -> Alcotest.fail "expected a parse error"
        | Error e ->
          let contains_line2 =
            let sub = "line 2" in
            let n = String.length sub in
            let rec scan i =
              i + n <= String.length e
              && (String.sub e i n = sub || scan (i + 1))
            in
            scan 0
          in
          check_b "line 2 named" true contains_line2);
    Alcotest.test_case "a leading-zero number is a malformed row" `Quick
      (fun () ->
        let st = Faros_query.Store.create () in
        match
          Faros_query.Store.ingest_lines st
            [
              {|{"v":1,"type":"graph_segment","run":"r","seq":01,"event":"begin","nodes":0,"edges":0}|};
            ]
        with
        | Ok _ -> Alcotest.fail "ingested a row check-json rejects"
        | Error _ -> ());
  ]

(* -- the campaign pipeline ------------------------------------------------- *)

let campaign_tests =
  [
    Alcotest.test_case
      "full core corpus: store slices match resident graphs byte-for-byte"
      `Slow (fun () ->
        let c =
          Faros_farm.Campaign.run ~workers:4 ~graph_segments:true
            (Faros_corpus.Registry.all ())
        in
        check_b "campaign ok" true (Faros_farm.Campaign.ok c);
        let st = Faros_query.Store.create () in
        List.iter
          (fun (r : Faros_farm.Campaign.job_result) ->
            check_b (r.jr_id ^ " shipped segments") true (r.jr_segments <> []);
            match Faros_query.Store.ingest_lines st r.jr_segments with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s: %s" r.jr_id e)
          c.results;
        let totals = Faros_query.Store.totals st in
        check "every run ingested" (List.length c.results) totals.t_runs;
        check "every run complete" (List.length c.results) totals.t_complete;
        (* every flagged sample: the store's reconstruction answers the
           whodunit byte-identically to a fresh resident build, and the
           worker's shipped rows equal a local writer's rows *)
        List.iter
          (fun (r : Faros_farm.Campaign.job_result) ->
            if r.jr_verdict = Faros_farm.Campaign.Flagged then begin
              let g, lines, _, _ = dual_build (sample r.jr_id) in
              check_b
                (r.jr_id ^ ": worker rows = local rows")
                true
                (r.jr_segments = lines);
              let g' = run_graph_exn st r.jr_id in
              check_s (r.jr_id ^ ": slices") (slice_text g) (slice_text g');
              check_s (r.jr_id ^ ": export") (export g) (export g')
            end)
          c.results;
        match Faros_query.Store.origins st with
        | Error e -> Alcotest.failf "origins: %s" e
        | Ok origins ->
          check_b "some origin reaches multiple runs" true
            (List.exists
               (fun (o : Faros_query.Store.origin) ->
                 List.length o.o_runs > 1)
               origins));
  ]

(* -- the bounded-memory acceptance sample ---------------------------------- *)

let acceptance_tests =
  [
    Alcotest.test_case
      "netd_inject_2000: O(live) residency, one guilty 5-tuple" `Slow
      (fun () ->
        let s = sample "netd_inject_2000" in
        let lines, st, outcome = stream_build s in
        check_b "flagged" true (Core.Analysis.flagged outcome);
        check_b "ran within its own budget" true
          (outcome.replay.replay_ticks < s.scenario.max_ticks);
        (* sublinear residency: thousands of nodes pass through, only a
           handful are ever live at once *)
        check_b "spilled thousands of nodes" true (st.st_spilled_nodes > 4000);
        check_b
          (Printf.sprintf "peak live nodes (%d) is O(1) in connections"
             st.st_peak_live_nodes)
          true
          (st.st_peak_live_nodes * 20 < st.st_spilled_nodes);
        check_b "peak live edges bounded too" true
          (st.st_peak_live_edges * 20 < st.st_spilled_edges);
        check_b "stream rotated segments" true (st.st_segments > 1);
        (* the whodunit slice pins exactly the guilty connection *)
        let _, sched, guilty =
          Faros_corpus.Servers.inject_under_load ~clients:2000
            ~worker_close:true ~arrival:(Faros_netd.Gen.Uniform 1000)
            ~name:"netd_inject_2000" ()
        in
        let gf = Faros_corpus.Servers.guilty_flow sched guilty in
        let guilty_label =
          Printf.sprintf "NetFlow %s:%d -> %s:%d"
            (Faros_os.Types.Ip.to_string gf.Faros_os.Types.src_ip)
            gf.Faros_os.Types.src_port
            (Faros_os.Types.Ip.to_string gf.Faros_os.Types.dst_ip)
            gf.Faros_os.Types.dst_port
        in
        let store = store_of_lines lines in
        let g = run_graph_exn store s.id in
        let slices = Faros_graph.Slice.slices g in
        check_b "slices exist" true (slices <> []);
        List.iter
          (fun (sl : Faros_graph.Slice.t) ->
            check (Printf.sprintf "one origin for %s"
                     (Faros_graph.Graph.node_label sl.sl_flag))
              1
              (List.length sl.sl_origins);
            List.iter
              (fun o ->
                check_s "origin is the guilty flow" guilty_label
                  (Faros_graph.Graph.node_label o))
              sl.sl_origins)
          slices);
    Alcotest.test_case "worker close retires flows mid-run" `Quick (fun () ->
        let scn, _ =
          Faros_corpus.Servers.custom_load ~worker_close:true
            ~name:"query_close_probe"
            ~payloads:
              [
                [ "GET /a HTTP/1.0\r\n\r\n" ];
                [ "GET /b HTTP/1.0\r\n\r\n" ];
                [ "GET /c HTTP/1.0\r\n\r\n" ];
                [ "GET /d HTTP/1.0\r\n\r\n" ];
              ]
            ()
        in
        let s =
          {
            (sample "netd_benign_load") with
            Faros_corpus.Registry.id = "query_close_probe";
            scenario = scn;
          }
        in
        let g, lines, st, _ = dual_build s in
        (* some nodes retired before the final drain *)
        check_b "spills happened before close" true
          (st.st_peak_live_nodes < Faros_graph.Graph.node_count g);
        let store = store_of_lines lines in
        let g' = run_graph_exn store "query_close_probe" in
        check_s "round-trip" (export g) (export g'));
  ]

(* The store reads its segments back through [Faros_obs.Json.parse]; a
   truncated or corrupted row must be refused, never half-read. *)
let jsonv_tests =
  [
    Alcotest.test_case "rejects trailing garbage and bad tokens" `Quick
      (fun () ->
        let bad = [ "{"; "[1,]"; "{\"a\":}"; "nul"; "{\"a\":1}x"; "\"\\q\"" ] in
        List.iter
          (fun s ->
            match Faros_obs.Json.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          bad);
  ]

let () =
  Alcotest.run "query"
    [
      ("jsonv", jsonv_tests);
      ("roundtrip", roundtrip_tests);
      ("merge", merge_tests);
      ("campaign", campaign_tests);
      ("acceptance", acceptance_tests);
    ]

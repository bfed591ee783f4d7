(* Streaming forensic store tests: segment round-trips back to the exact
   resident graph, the store's merge is commutative and idempotent under
   row shuffles, malformed stores are refused with an Error, campaign-
   shipped segments equal locally-written ones, and the 2000-connection
   acceptance sample stays bounded-memory. *)

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let sample id =
  match Faros_corpus.Registry.find id with
  | Some s -> s
  | None -> Alcotest.failf "unknown sample %s" id

(* One analysis through the segment writer.  Returns the builder, the
   JSONL rows, the writer's stats and the outcome; by default the builder
   also keeps the resident graph ([Build.graph]), [~resident:false] is the
   bounded-memory path with no resident graph at all. *)
let build ?resident (s : Faros_corpus.Registry.sample) =
  let sink = Faros_obs.Sink.create () in
  let builder = ref None in
  let writer = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let w = Faros_query.Segment.writer ~sink ~run:s.id () in
        writer := Some w;
        let b =
          Faros_graph.Build.create ?resident
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
  (b, Faros_obs.Sink.lines sink, Faros_query.Segment.stats w, outcome)

let contains s sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length s && (String.sub s i n = sub || scan (i + 1))
  in
  scan 0

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
  Faros_obs.Json.to_string
    (Faros_graph.Export.to_json ~slices:(Faros_graph.Slice.slices g) g)
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
          let b, lines, st, _ = build (sample id) in
          let g = Faros_graph.Build.graph b in
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
        let _, l1, _, _ = build (sample "reflective_dll_inject") in
        let _, l2, _, _ = build (sample "darkcomet_injection") in
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
        let _, lines, _, _ = build (sample "process_hollowing") in
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
        | Error e -> check_b "line 2 named" true (contains e "line 2"));
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

(* -- hand-written bad rows: Error, never an exception ---------------------- *)

let node_row ~seq ~ord =
  Printf.sprintf
    {|{"v":1,"type":"graph_node","run":"bad","seq":%d,"ord":%d,"ident":"proc|p%d","kind":"process","pid":%d,"name":"p.exe","tainted":0,"netflow":0}|}
    seq ord ord (100 + ord)

let bad_row_tests =
  [
    Alcotest.test_case "an edge naming an ordinal with no node row" `Quick
      (fun () ->
        let st =
          store_of_lines
            [
              node_row ~seq:0 ~ord:0;
              node_row ~seq:1 ~ord:1;
              {|{"v":1,"type":"graph_edge","run":"bad","seq":2,"eord":0,"src":0,"dst":3,"kind":"spawned","tick":1,"last_tick":1,"count":1,"bytes":0}|};
            ]
        in
        (match Faros_query.Store.run_graph st "bad" with
        | Ok _ -> Alcotest.fail "run_graph accepted a dangling edge"
        | Error e ->
          check_b ("run and ordinal named: " ^ e) true
            (contains e "run bad" && contains e "ordinal 3"));
        check_b "merged_graph refuses it too" true
          (Result.is_error (Faros_query.Store.merged_graph st)));
    Alcotest.test_case "merged_graph over non-dense or negative ordinals"
      `Quick (fun () ->
        List.iter
          (fun ords ->
            let st =
              store_of_lines
                (List.mapi (fun seq ord -> node_row ~seq ~ord) ords)
            in
            check_b "run_graph is an Error" true
              (Result.is_error (Faros_query.Store.run_graph st "bad"));
            check_b "merged_graph is an Error" true
              (Result.is_error (Faros_query.Store.merged_graph st)))
          [ [ 0; 5 ]; [ -1; 0 ] ]);
    Alcotest.test_case "a flow row with a malformed address" `Quick (fun () ->
        let st =
          store_of_lines
            [
              {|{"v":1,"type":"graph_node","run":"bad","seq":0,"ord":0,"ident":"flow|x","kind":"flow","src":"10.0.0","sport":1,"dst":"10.0.0.2","dport":80}|};
            ]
        in
        match Faros_query.Store.run_graph st "bad" with
        | Ok _ -> Alcotest.fail "run_graph accepted a malformed address"
        | Error e -> check_b ("field named: " ^ e) true (contains e "src"));
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
              let b, lines, _, _ = build (sample r.jr_id) in
              let g = Faros_graph.Build.graph b in
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
        let _, lines, st, outcome = build ~resident:false s in
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
        let b, lines, st, _ = build s in
        let g = Faros_graph.Build.graph b in
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
      ("bad rows", bad_row_tests);
      ("campaign", campaign_tests);
      ("acceptance", acceptance_tests);
    ]

(* Attack-graph subsystem tests: construction over real corpus samples,
   whodunit slicing back to input origins, determinism of the DOT/JSON
   exporters, and the restrict/forward query helpers. *)

open Faros_graph

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let sample id =
  match Faros_corpus.Registry.find id with
  | Some s -> s
  | None -> Alcotest.failf "unknown sample %s" id

(* Run one registry sample under the FAROS plugin with the graph builder
   attached, then enrich from the finished shadow memory. *)
let build_graph ?metrics (s : Faros_corpus.Registry.sample) =
  let builder = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let b = Build.create ?metrics ~sample:s.id () in
        builder := Some b;
        [ Build.plugin b ~kernel ~faros ])
      s.scenario
  in
  let b = Option.get !builder in
  Build.enrich b outcome.faros;
  (Build.graph b, outcome)

let has_flow g =
  List.exists
    (fun (n : Graph.node) ->
      match n.n_kind with Graph.Flow _ -> true | _ -> false)
    (Graph.nodes g)

(* -- construction + slicing over the corpus -------------------------------- *)

let corpus_tests =
  [
    Alcotest.test_case "reflective injection: Fig. 4 shape" `Quick (fun () ->
        let g, outcome = build_graph (sample "reflective_dll_inject") in
        check_b "flagged" true (Core.Analysis.flagged outcome);
        check_b "nonempty" true (Graph.node_count g > 0);
        check_b "has flow node" true (has_flow g);
        let slices = Slice.slices g in
        check_b "one slice per flag" true
          (List.length slices = List.length (Graph.flag_nodes g));
        check_b "slices exist" true (slices <> []);
        List.iter
          (fun (sl : Slice.t) ->
            check_b "netflow origin" true (Slice.has_netflow_origin sl);
            check_b "chains rendered" true (sl.sl_chains <> []);
            List.iter
              (fun chain ->
                let rendered = Slice.render_chain chain in
                check_b "chain starts at origin" true
                  (String.length rendered > 0
                  && List.exists
                       (fun (o : Graph.node) ->
                         List.hd chain == o || List.mem o chain)
                       sl.sl_origins))
              sl.sl_chains)
          slices);
    Alcotest.test_case "every attack slices back to an input origin" `Slow
      (fun () ->
        List.iter
          (fun (s : Faros_corpus.Registry.sample) ->
            let g, outcome = build_graph s in
            check_b (s.id ^ " flagged") true (Core.Analysis.flagged outcome);
            let slices = Slice.slices g in
            check_b (s.id ^ " has slices") true (slices <> []);
            let network_borne = has_flow g in
            List.iter
              (fun (sl : Slice.t) ->
                check_b (s.id ^ " slice has origins") true
                  (sl.sl_origins <> []);
                check_b (s.id ^ " slice nodes nonempty") true
                  (sl.sl_nodes <> []);
                (* network-borne attacks must trace to the wire; file-borne
                   ones (process hollowing) to a source file instead *)
                if network_borne then
                  check_b
                    (s.id ^ " netflow origin")
                    true
                    (Slice.has_netflow_origin sl))
              slices)
          (Faros_corpus.Registry.attacks ()));
    Alcotest.test_case "benign and JIT samples: no flag sites, empty slices"
      `Quick (fun () ->
        List.iter
          (fun id ->
            let g, outcome = build_graph (sample id) in
            check_b (id ^ " clean") false (Core.Analysis.flagged outcome);
            check (id ^ " no flag nodes") 0 (List.length (Graph.flag_nodes g));
            check (id ^ " no slices") 0 (List.length (Slice.slices g)))
          [ "snipping_tool_s0"; "applet_acceleration" ]);
  ]

(* -- determinism + exporters ------------------------------------------------ *)

let export_tests =
  [
    Alcotest.test_case "DOT and JSON are byte-identical across runs" `Quick
      (fun () ->
        let render () =
          let g, _ = build_graph (sample "reflective_dll_inject") in
          let slices = Slice.slices g in
          (Export.to_dot g, Faros_obs.Json.to_string (Export.to_json ~slices g))
        in
        let dot1, json1 = render () in
        let dot2, json2 = render () in
        check_s "dot stable" dot1 dot2;
        check_s "json stable" json1 json2);
    Alcotest.test_case "graph JSON passes the hand-rolled checker" `Quick
      (fun () ->
        let g, _ = build_graph (sample "process_hollowing") in
        let json = Faros_obs.Json.to_string (Export.to_json ~slices:(Slice.slices g) g) in
        (match Faros_obs.Json.well_formed json with
        | Ok () -> ()
        | Error e -> Alcotest.failf "malformed graph JSON: %s" e);
        check_b "names the sample" true
          (let re = "process_hollowing" in
           let len = String.length re in
           let rec scan i =
             i + len <= String.length json
             && (String.sub json i len = re || scan (i + 1))
           in
           scan 0));
    Alcotest.test_case "restricting to a slice exports the slice only" `Quick
      (fun () ->
        let g, _ = build_graph (sample "reflective_dll_inject") in
        let sl = List.hd (Slice.slices g) in
        let keep (n : Graph.node) = List.mem n.n_id sl.sl_nodes in
        let sub = Graph.restrict g ~keep in
        check "slice node count" (List.length sl.sl_nodes)
          (Graph.node_count sub);
        check_b "fewer nodes than full graph" true
          (Graph.node_count sub < Graph.node_count g);
        check_b "sub-DOT renders" true (String.length (Export.to_dot sub) > 0));
  ]

(* -- queries + metrics ------------------------------------------------------ *)

let query_tests =
  [
    Alcotest.test_case "forward reachability: flow reaches the flag" `Quick
      (fun () ->
        let g, _ = build_graph (sample "reflective_dll_inject") in
        let flow =
          List.find
            (fun (n : Graph.node) ->
              match n.n_kind with Graph.Flow _ -> true | _ -> false)
            (Graph.nodes g)
        in
        let reach = Slice.forward g flow in
        check_b "start included" true (List.memq flow reach);
        List.iter
          (fun fl -> check_b "flag reachable from flow" true (List.memq fl reach))
          (Graph.flag_nodes g));
    Alcotest.test_case "graph counters land in the metrics registry" `Quick
      (fun () ->
        let metrics = Faros_obs.Metrics.create () in
        let g, _ = build_graph ~metrics (sample "reflective_dll_inject") in
        let json = Faros_obs.Json.to_string (Faros_obs.Metrics.to_json metrics) in
        let mem sub =
          let len = String.length sub in
          let rec scan i =
            i + len <= String.length json
            && (String.sub json i len = sub || scan (i + 1))
          in
          scan 0
        in
        check_b "graph.nodes counter" true (mem "graph.nodes");
        check_b "graph.edges counter" true (mem "graph.edges");
        check_b "graph.os_events counter" true (mem "graph.os_events");
        check_b "graph.flag_sites counter" true (mem "graph.flag_sites");
        ignore (Graph.node_count g));
  ]

let () =
  Alcotest.run "graph"
    [
      ("corpus", corpus_tests);
      ("export", export_tests);
      ("query", query_tests);
    ]

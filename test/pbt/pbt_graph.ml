(* Stateful property: drive the vulnerable server with a random command
   sequence (a traffic mix of benign requests, chunked requests and
   injections), build the attack graph twice from the same replay — the
   resident one-shot graph and the bounded-memory delta stream round-
   tripped through the forensic store — and require byte-identical
   exports and whodunit slices.

   QCheck shrinks a failing command list toward the smallest traffic mix
   that still breaks the equivalence, which is exactly the repro one
   wants in a bug report. *)

(* One client's behavior in the generated schedule.  [Evil] carries the
   exec-magic payload the vulnerable worker executes; [Chunked] splits a
   benign request across sends to exercise reassembly. *)
type cmd = Benign | Chunked | Evil | Tiny

let cmd_of_int = function
  | 0 -> Benign
  | 1 -> Chunked
  | 2 -> Evil
  | _ -> Tiny

let payload_of_cmd i = function
  | Benign -> [ Faros_corpus.Servers.benign_request i ]
  | Chunked ->
    let r = Faros_corpus.Servers.benign_request i in
    let cut = String.length r / 2 in
    [ String.sub r 0 cut; String.sub r cut (String.length r - cut) ]
  | Evil -> [ Faros_corpus.Servers.evil_request () ]
  | Tiny -> [ "ping" ]

(* Build both graphs from one analysis: the resident baseline and the
   streaming segment rows. *)
let dual_build (scn : Faros_corpus.Scenario.t) name =
  let sink = Faros_obs.Sink.create () in
  let builder = ref None in
  let writer = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let w = Faros_query.Segment.writer ~seg_rows:64 ~sink ~run:name () in
        writer := Some w;
        let b =
          Faros_graph.Build.create
            ~consumer:(Faros_query.Segment.consume w)
            ~sample:name ()
        in
        builder := Some b;
        [ Faros_graph.Build.plugin b ~kernel ~faros ])
      scn
  in
  let b = Option.get !builder and w = Option.get !writer in
  Faros_graph.Build.enrich b outcome.faros;
  Faros_query.Segment.close w;
  (Faros_graph.Build.graph b, Faros_obs.Sink.lines sink)

let render g =
  let slices = Faros_graph.Slice.slices g in
  let chains =
    List.concat_map
      (fun (s : Faros_graph.Slice.t) ->
        List.map Faros_graph.Slice.render_chain s.sl_chains)
      slices
  in
  Faros_obs.Json.to_string (Faros_graph.Export.to_json ~slices g)
  ^ Faros_graph.Export.to_dot g
  ^ String.concat "\n" chains

(* The property: online + offline-enrichment through the delta stream and
   the store reconstructs the resident graph exactly, for any traffic. *)
let stream_equals_resident (worker_close, cmds) =
  let cmds = List.map cmd_of_int cmds in
  let payloads = List.mapi payload_of_cmd cmds in
  let scn, _ =
    Faros_corpus.Servers.custom_load ~worker_close ~name:"pbt_traffic"
      ~payloads ()
  in
  let g, lines = dual_build scn "pbt_traffic" in
  let store = Faros_query.Store.create () in
  match Faros_query.Store.ingest_lines store lines with
  | Error _ -> false
  | Ok _ -> (
    match Faros_query.Store.run_graph store "pbt_traffic" with
    | Error _ -> false
    | Ok g' ->
      Faros_graph.Graph.node_count g = Faros_graph.Graph.node_count g'
      && Faros_graph.Graph.edge_count g = Faros_graph.Graph.edge_count g'
      && render g = render g')

let arb_traffic =
  QCheck.(
    pair bool (list_of_size Gen.(1 -- 5) (int_bound 3)))

let prop_stream_equals_resident =
  QCheck.Test.make ~name:"delta stream + store = resident graph" ~count:12
    arb_traffic stream_equals_resident

let () =
  Alcotest.run "pbt"
    [
      ( "graph",
        [ QCheck_alcotest.to_alcotest prop_stream_equals_resident ] );
    ]

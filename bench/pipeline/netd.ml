(* netd: one analyst question against a server.  A 500-client trace of
   the vulnerable listener with one guilty client; one op runs from
   record to whodunit slice.  Syscall- and netstack-heavy, and enrich
   dominates the answer. *)

open Harness

let clients = 500

(* Seed 0 picks the middle client (Servers' own default); other seeds
   step through the clients with a stride coprime to their count. *)
let guilty ~seed = (((clients / 2) + (seed * 37)) mod clients + clients) mod clients

let scenario ~seed =
  Faros_corpus.Servers.inject_under_load ~clients ~guilty:(guilty ~seed)
    ~worker_close:true ~arrival:(Faros_netd.Gen.Uniform 1000) ~name:"bench_netd" ()

(* Flagged, and every slice's NetFlow origins are exactly the guilty
   client's flow (its source port is its identity). *)
let check (a : Whodunit.answer) ~flow =
  let origins =
    List.concat_map
      (fun (s : Faros_graph.Slice.t) ->
        List.filter_map
          (fun (n : Faros_graph.Graph.node) ->
            match n.n_kind with Faros_graph.Graph.Flow f -> Some f | _ -> None)
          s.sl_origins)
      a.a_slices
  in
  a.a_flagged && (not a.a_replay.diverged) && a.a_slices <> []
  && List.for_all
       (fun (f : Faros_os.Types.flow) -> f.src_port = flow.Faros_os.Types.src_port)
       origins
  && origins <> []

(* Set-up builds the server and its traffic and records the trace once:
   the recording the traced run's differential replays use. *)
let prepare ~seed () =
  let scn, sched, g = scenario ~seed in
  let _kernel, trace = Faros_corpus.Scenario.record scn in
  (scn, Faros_corpus.Servers.guilty_flow sched g, trace)

let run ~seed ~seconds ~trace =
  let (scn, flow, recorded), setup_s = setup_median ~k:5 (prepare ~seed) in
  let op probe = check (Whodunit.answer ?probe ~run:"netd" scn) ~flow in
  fresh ();
  let warm = op None in
  (* The replay-side split: a bare, a FAROS-only and a FAROS+builder
     replay of the set-up's recording between traced ops. *)
  let plain = ref [] and faros = ref [] and full = ref [] in
  let round () =
    List.iter
      (fun (acc, f) ->
        fresh ();
        acc := f () :: !acc)
      [
        (plain, fun () -> Whodunit.replay_plain scn recorded);
        (faros, fun () -> Whodunit.replay_faros scn recorded);
        (full, fun () -> Whodunit.replay_faros ~builder:true scn recorded);
      ]
  in
  let l = loop ~seconds ~trace ~between:round op in
  let layers = median_readings l.readings in
  if trace then begin
    let plain = Stats.median !plain and faros = Stats.median !faros
    and full = Stats.median !full in
    let whole = Stats.median l.traced in
    derive layers ~plain ~faros ~full ~whole ();
    finish_trace l layers ~layer_sum:(Whodunit.layer_sum layers ~replay_s:full)
      ~traced_s:whole
  end;
  {
    r_setup_s = setup_s;
    r_loop = l;
    r_layers = layers;
    r_spawned = 1;
    r_checks = [ ("netd warm-up answer", warm) ];
  }

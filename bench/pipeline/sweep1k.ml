(* sweep1k: triage throughput.  One op is a campaign over the 1,093
   generated samples on two worker domains, graph on.  The seed shuffles
   the submission order: verdicts do not depend on it, but scheduling
   and stealing do. *)

open Harness

let workers = 2

(* Set-up: the corpus built cold (an empty snapshot, as in a fresh
   process), in registry order and in the seed's submission order. *)
let corpus ~seed () =
  Faros_corpus.Snapshot.reset_for_tests ();
  let registry = Faros_corpus.Registry.sweep1k () in
  (registry, Stats.shuffle ~seed registry)

let verdicts (c : Faros_farm.Campaign.t) =
  let count v =
    List.length
      (List.filter
         (fun (r : Faros_farm.Campaign.job_result) ->
           Faros_farm.Campaign.verdict_name r.jr_verdict = v)
         c.results)
  in
  (count "flagged", count "clean", count "error", count "timeout")

let check c =
  let _, _, errors, timeouts = verdicts c in
  Faros_farm.Campaign.ok c && errors = 0 && timeouts = 0

(* The farm's own accounting of one traced campaign. *)
let farm_readings p (c : Faros_farm.Campaign.t) ~late0 =
  let sum f = List.fold_left (fun acc ws -> acc + f ws) 0 c.worker_stats in
  let busy = sum (fun (ws : Faros_farm.Pool.worker_stat) -> ws.ws_busy_ns) in
  add p "farm.utilization" (float busy *. 1e-9 /. (c.wall_s *. float c.spawned));
  add p "farm.idle_s" (float (sum (fun ws -> ws.ws_idle_ns)) *. 1e-9);
  add p "farm.steals" (float (sum (fun ws -> ws.ws_steals)));
  add p "farm.peak_depth" (float c.peak_depth);
  add p "farm.spawned" (float c.spawned);
  let n = List.length c.results in
  add p "farm.samples_per_s" (float n /. c.wall_s);
  let walls =
    List.map
      (fun (r : Faros_farm.Campaign.job_result) -> r.jr_wall_s *. 1e3)
      c.results
  in
  add p "farm.verdict_p50_ms" (Stats.median walls);
  add p "farm.verdict_p99_ms" (Stats.percentile 99. walls);
  let late = (Faros_corpus.Snapshot.stats ()).ss_late_builds - late0 in
  add p "corpus.snapshot.late_builds" (float late)

(* Every tenth sample (110 of them) analysed serially through the
   whodunit pipeline, with the replay split by differential replays (per
   sample the median of three of each): the per-layer view a campaign
   cannot give from outside.  Returns the layer sum, the pipeline's own
   time, and whether every verdict matched. *)
let decompose layers samples =
  let p = probe () in
  let whole = ref 0. and split = ref 0. and ok = ref true in
  let plain = ref 0. and faros = ref 0. and full = ref 0. in
  List.iteri
    (fun i (s : Faros_corpus.Registry.sample) ->
      if i mod 10 = 0 then begin
        Faros_dift.Prov_intern.set_store (Faros_dift.Prov_intern.create_store ());
        let sp = probe () in
        let a, dt = timed (fun () -> Whodunit.answer ~probe:sp ~run:s.id s.scenario) in
        let expect = s.expected = Faros_corpus.Registry.Expect_flag in
        if a.a_flagged <> expect || a.a_replay.diverged then ok := false;
        let med f = Stats.median (List.init 3 (fun _ -> f ())) in
        let pl = med (fun () -> Whodunit.replay_plain s.scenario a.a_trace) in
        let fa = med (fun () -> Whodunit.replay_faros s.scenario a.a_trace) in
        let fb =
          med (fun () -> Whodunit.replay_faros ~builder:true s.scenario a.a_trace)
        in
        plain := !plain +. pl;
        faros := !faros +. fa;
        full := !full +. fb;
        whole := !whole +. dt;
        split := !split +. Whodunit.layer_sum sp ~replay_s:fb;
        Hashtbl.iter (fun k v -> add p k v) sp
      end)
    samples;
  derive p ~plain:!plain ~faros:!faros ~full:!full ~whole:!whole ();
  Hashtbl.iter (fun k v -> Hashtbl.replace layers k v) p;
  (!split, !whole, !ok)

let run ~seed ~seconds ~trace =
  let (registry, samples), setup_s = setup_median ~k:9 (corpus ~seed) in
  let built = Faros_corpus.Snapshot.stats () in
  fresh ();
  let warm = Faros_farm.Campaign.run ~workers samples in
  let reference = verdicts warm in
  let l =
    loop ~seconds ~trace (fun probe ->
        let late0 = (Faros_corpus.Snapshot.stats ()).ss_late_builds in
        let c = Faros_farm.Campaign.run ~workers samples in
        Option.iter (fun p -> farm_readings p c ~late0) probe;
        check c && verdicts c = reference)
  in
  let layers = median_readings l.readings in
  let checks = [ ("sweep1k warm-up campaign", check warm) ] in
  let checks =
    if not trace then checks
    else begin
      add layers "corpus.build_s" setup_s;
      add layers "corpus.snapshot.hits" (float built.ss_hits);
      add layers "corpus.snapshot.misses" (float built.ss_misses);
      (* The scaling figure: one serial and one two-domain campaign. *)
      let wall w =
        fresh ();
        (Faros_farm.Campaign.run ~workers:w samples).wall_s
      in
      let j1 = wall 1 in
      add layers "farm.speedup_j2" (j1 /. wall 2);
      let split, whole, ok = decompose layers registry in
      finish_trace l layers ~layer_sum:split ~traced_s:whole;
      ("sweep1k subset verdicts", ok) :: checks
    end
  in
  {
    r_setup_s = setup_s;
    r_loop = l;
    r_layers = layers;
    r_spawned = warm.spawned;
    r_checks = checks;
  }

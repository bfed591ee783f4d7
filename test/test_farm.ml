(* Tests for the campaign farm: the domain worker pool, per-job
   isolation, crash containment, and the serial/parallel equivalence
   that makes `campaign -j N` trustworthy. *)

open Faros_farm

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* -- the worker pool ----------------------------------------------------- *)

exception Boom of int

(* Pin the spawned-domain count for a test (the pool otherwise caps at
   the host's recommended count, which is 1 on single-core CI), restoring
   the previous environment afterwards. *)
let with_forced_domains n f =
  let old = Sys.getenv_opt "FAROS_FARM_DOMAINS" in
  Unix.putenv "FAROS_FARM_DOMAINS" (string_of_int n);
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "FAROS_FARM_DOMAINS"
        (Option.value old
           ~default:(string_of_int (Domain.recommended_domain_count ()))))

(* [Pool.map] handing the results back unchanged. *)
let pmap ~workers f items = fst (Pool.map ~workers ~on_result:(fun _ r -> r) f items)

let ok_values results =
  List.map (function Ok v -> v | Error _ -> Alcotest.fail "job errored") results

let sum_jobs stats = List.fold_left (fun acc s -> acc + s.Pool.ws_jobs) 0 stats

let pool_tests =
  [
    Alcotest.test_case "all jobs complete, in submission order" `Quick
      (fun () ->
        let items = List.init 40 Fun.id in
        let results = pmap ~workers:4 (fun ~worker:_ i -> i * i) items in
        Alcotest.(check (list int))
          "squares in order"
          (List.map (fun i -> i * i) items)
          (ok_values results));
    Alcotest.test_case "a raising job is contained" `Quick (fun () ->
        let results =
          pmap ~workers:3
            (fun ~worker:_ i -> if i mod 3 = 0 then raise (Boom i) else i)
            (List.init 10 Fun.id)
        in
        List.iteri
          (fun i r ->
            match r with
            | Ok v ->
              check_b "only non-multiples succeed" true (i mod 3 <> 0);
              check "value" i v
            | Error (Boom j) ->
              check_b "only multiples fail" true (i mod 3 = 0);
              check "carried payload" i j
            | Error _ -> Alcotest.fail "wrong exception")
          results);
    Alcotest.test_case "workers survive raising jobs" `Quick (fun () ->
        (* one worker: if the raise killed it, the second job would hang *)
        let results =
          pmap ~workers:1
            (fun ~worker:_ i -> if i = 0 then raise (Boom 1) else 42)
            [ 0; 1 ]
        in
        check_b "first errored" true (List.nth results 0 = Result.Error (Boom 1));
        check_b "second still ran" true (List.nth results 1 = Ok 42));
    Alcotest.test_case "a slow job does not hold back the queue" `Quick
      (fun () ->
        (* Four real domains (the pool otherwise caps at the host's
           recommendation): the first job waits until the 24 fast jobs
           behind it have all run, which only happens if the other
           domains keep taking jobs while it sleeps. *)
        with_forced_domains 4 (fun () ->
            let fast_done = Atomic.make 0 in
            let job ~worker:_ i =
              if i = 0 then begin
                let give_up = Unix.gettimeofday () +. 10. in
                while Atomic.get fast_done < 24 && Unix.gettimeofday () < give_up do
                  Unix.sleepf 0.002
                done;
                Atomic.get fast_done
              end
              else begin
                Atomic.incr fast_done;
                i
              end
            in
            let results, stats =
              Pool.map ~workers:4 ~on_result:(fun _ r -> r) job (List.init 25 Fun.id)
            in
            check "four domains spawned" 4 (List.length stats);
            Alcotest.(check (list int))
              "the slow job saw every fast job finish, results in order"
              (24 :: List.init 24 (fun i -> i + 1))
              (ok_values results);
            check "all jobs counted" 25 (sum_jobs stats)));
    Alcotest.test_case "on_result sees input order" `Quick (fun () ->
        (* Later jobs finish first; on_result still runs in input order,
           once per item, and map returns what it returned. *)
        with_forced_domains 4 (fun () ->
            let seen = ref [] in
            let on_result x r =
              seen := x :: !seen;
              match r with Ok v -> v + 1000 | Error _ -> Alcotest.fail "job errored"
            in
            let items = List.init 16 Fun.id in
            let results, _ =
              Pool.map ~workers:4 ~on_result
                (fun ~worker:_ i ->
                  Unix.sleepf (0.001 *. float_of_int (16 - i));
                  i * 2)
                items
            in
            Alcotest.(check (list int)) "on_result calls in input order" items
              (List.rev !seen);
            Alcotest.(check (list int))
              "on_result's values, in input order"
              (List.map (fun i -> (i * 2) + 1000) items)
              results));
    Alcotest.test_case "each worker domain gets its own prov store" `Quick
      (fun () ->
        (* Jobs that intern different tags concurrently: with a shared
           store the id sequences would interleave; with per-job stores
           each job sees a store of exactly its own nodes. *)
        let counts =
          pmap ~workers:4
            (fun ~worker:_ n ->
              let st = Faros_dift.Provenance.create_store () in
              Faros_dift.Provenance.set_store st;
              for i = 1 to n do
                ignore (Faros_dift.Provenance.singleton (Faros_dift.Tag.Netflow i))
              done;
              Faros_dift.Provenance.store_interned_count st)
            [ 5; 10; 15; 20 ]
        in
        Alcotest.(check (list int))
          "each store holds empty + its own singletons"
          [ 6; 11; 16; 21 ]
          (ok_values counts));
  ]

(* -- worker telemetry ------------------------------------------------------ *)

let telemetry_pool_tests =
  [
    Alcotest.test_case "worker stats account for every job" `Quick (fun () ->
        let _, stats =
          Pool.map ~workers:4 ~on_result:(fun _ r -> r) (fun ~worker:_ i -> i)
            (List.init 30 Fun.id)
        in
        check_b "one stat per spawned worker, bounded by request" true
          (List.length stats >= 1 && List.length stats <= 4);
        check "jobs sum to submissions" 30 (sum_jobs stats);
        List.iter
          (fun s ->
            check_b "busy time non-negative" true (s.Pool.ws_busy_ns >= 0);
            check_b "idle time non-negative" true (s.Pool.ws_idle_ns >= 0);
            check "no steals from one queue" 0 s.Pool.ws_steals)
          stats);
    (* Named for the submission call it first tested; it now pins the
       [~worker] index [Pool.map] passes. *)
    Alcotest.test_case "submit_indexed passes a valid worker index" `Quick
      (fun () ->
        let indices, stats =
          Pool.map ~workers:3
            ~on_result:(fun _ r ->
              match r with Ok w -> w | Error _ -> Alcotest.fail "job errored")
            (fun ~worker _ -> worker)
            (List.init 20 Fun.id)
        in
        let spawned = List.length stats in
        List.iter
          (fun w -> check_b "index within spawned range" true
              (w >= 0 && w < spawned))
          indices);
    Alcotest.test_case "raising jobs still count in worker stats" `Quick
      (fun () ->
        let _, stats =
          Pool.map ~workers:1 ~on_result:(fun _ r -> r)
            (fun ~worker:_ i -> if i = 0 then raise (Boom 0))
            [ 0; 1 ]
        in
        check "both jobs counted" 2 (sum_jobs stats));
  ]

(* -- campaign isolation and verdicts ------------------------------------- *)

let run_ids ?workers ?tick_budget ?deadline ids =
  Campaign.run ?workers ?tick_budget ?deadline
    (List.filter_map Faros_corpus.Registry.find ids)

let verdict_of (c : Campaign.t) id =
  match List.find_opt (fun r -> r.Campaign.jr_id = id) c.results with
  | Some r -> r.Campaign.jr_verdict
  | None -> Alcotest.fail ("no result for " ^ id)

let campaign_tests =
  [
    Alcotest.test_case "a crashing sample becomes an Error verdict" `Quick
      (fun () ->
        (* the hidden crash sample raises out of its record phase; the
           campaign must contain it and still run its neighbours *)
        let crash = Faros_corpus.Registry.crash_test () in
        let others =
          List.filter_map Faros_corpus.Registry.find
            [ "reflective_dll_inject"; "skype_s0" ]
        in
        let c = Campaign.run ~workers:2 ((crash :: others) @ [ crash ]) in
        check "all four ran" 4 (List.length c.results);
        (match verdict_of c crash.id with
        | Campaign.Error msg -> check_b "carries a message" true (msg <> "")
        | v -> Alcotest.fail ("expected Error, got " ^ Campaign.verdict_name v));
        check_b "attack neighbour still flagged" true
          (verdict_of c "reflective_dll_inject" = Campaign.Flagged);
        check_b "benign neighbour still clean" true
          (verdict_of c "skype_s0" = Campaign.Clean);
        check_b "crash is a mismatch" true
          (List.mem crash.id c.mismatches);
        check_b "campaign not ok" false (Campaign.ok c));
    Alcotest.test_case "deadline overrun becomes a Timeout verdict" `Quick
      (fun () ->
        let c = run_ids ~deadline:0.0 [ "reflective_dll_inject" ] in
        check_b "timeout" true
          (verdict_of c "reflective_dll_inject" = Campaign.Timeout);
        check_b "timeout makes the campaign not ok" false (Campaign.ok c));
    Alcotest.test_case "tick budget truncates the run" `Quick (fun () ->
        let c = run_ids ~tick_budget:10 [ "skype_s0" ] in
        match c.results with
        | [ r ] -> check_b "at most 10 ticks" true (r.Campaign.jr_record_ticks <= 10)
        | _ -> Alcotest.fail "one result expected");
    Alcotest.test_case "results and CSV of a two-sample campaign are pinned"
      `Quick (fun () ->
        let c =
          Campaign.run ~workers:1
            (List.filter_map Faros_corpus.Registry.find [ "reflective_dll_inject" ]
            @ [ Faros_corpus.Registry.crash_test () ])
        in
        (* wall_s is the one field that varies between runs *)
        let masked s =
          let key = {|"wall_s":|} in
          let n = String.length s and k = String.length key in
          let buf = Buffer.create n in
          let rec go i =
            if i >= n then ()
            else if i + k <= n && String.sub s i k = key then begin
              Buffer.add_string buf key;
              Buffer.add_char buf 'W';
              let j = ref (i + k) in
              while !j < n && String.contains "0123456789.-e" s.[!j] do
                incr j
              done;
              go !j
            end
            else begin
              Buffer.add_char buf s.[i];
              go (i + 1)
            end
          in
          go 0;
          Buffer.contents buf
        in
        let json = masked (Faros_obs.Json.to_string (Campaign.to_json c)) in
        let between ~start ~stop s =
          let find needle from =
            let n = String.length needle in
            let rec go i =
              if i + n > String.length s then Alcotest.failf "no %s" needle
              else if String.sub s i n = needle then i
              else go (i + 1)
            in
            go from
          in
          let a = find start 0 in
          String.sub s a (find stop a - a)
        in
        check_s "results member"
          {|"results":[{"id":"reflective_dll_inject","family":"meterpreter","category":"attack(reflective-dll-injection)","expected":"flag","verdict":"flagged","detail":"","diverged":false,"mismatch":false,"record_ticks":376,"replay_ticks":376,"syscalls":51,"tainted_bytes":4753,"interned_provs":51,"graph_nodes":13,"graph_edges":26,"flag_sites":2,"slice_nodes":5,"slice_origins":1,"netflow_origin":true,"worker":0,"wall_s":W,"tick_budget":600000,"budget_exhausted":false},{"id":"crash_missing_boot_image","family":"hidden-test","category":"benign","expected":"clean","verdict":"error","detail":"Faros_os.Spawn.Bad_executable(\"C:\\\\missing\\\\no_such_image.exe\")","diverged":false,"mismatch":true,"record_ticks":0,"replay_ticks":0,"syscalls":0,"tainted_bytes":0,"interned_provs":0,"graph_nodes":0,"graph_edges":0,"flag_sites":0,"slice_nodes":0,"slice_origins":0,"netflow_origin":false,"worker":0,"wall_s":W,"tick_budget":600000,"budget_exhausted":false}]|}
          (between ~start:{|"results":|} ~stop:{|,"mismatches":|} json);
        let csv_masked =
          String.split_on_char '\n' (Campaign.to_csv c)
          |> List.mapi (fun i line ->
                 if i = 0 || line = "" then line
                 else
                   String.split_on_char ',' line
                   |> List.mapi (fun j f -> if j = 19 then "W" else f)
                   |> String.concat ",")
          |> String.concat "\n"
        in
        check_s "csv"
          (String.concat "\n"
             [
               "id,family,category,expected,verdict,detail,diverged,mismatch,record_ticks,replay_ticks,syscalls,tainted_bytes,interned_provs,graph_nodes,graph_edges,flag_sites,slice_nodes,slice_origins,netflow_origin,wall_s,tick_budget,budget_exhausted";
               "reflective_dll_inject,meterpreter,attack(reflective-dll-injection),flag,flagged,,false,false,376,376,51,4753,51,13,26,2,5,1,true,W,600000,false";
               {|crash_missing_boot_image,hidden-test,benign,clean,error,"Faros_os.Spawn.Bad_executable(""C:\\missing\\no_such_image.exe"")",false,true,0,0,0,0,0,0,0,0,0,0,false,W,600000,false|};
               "";
             ])
          csv_masked);
    Alcotest.test_case "mismatch list is in registry order" `Quick (fun () ->
        let crash = Faros_corpus.Registry.crash_test () in
        let mk id = { crash with Faros_corpus.Registry.id } in
        let c = Campaign.run ~workers:2 [ mk "c1"; mk "c2"; mk "c3" ] in
        Alcotest.(check (list string))
          "submission order, not completion or reverse order"
          [ "c1"; "c2"; "c3" ] c.mismatches);
  ]

(* -- campaign observability ------------------------------------------------ *)

let contains ~needle hay =
  let n = String.length needle and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Every line of the stream, parsed back. *)
let parsed_lines sink =
  List.map
    (fun line ->
      match Faros_obs.Json.parse line with
      | Ok row -> row
      | Error e -> Alcotest.failf "unparsable stream line: %s" e)
    (Faros_obs.Sink.lines sink)

let of_type ty rows =
  List.filter (fun row -> Faros_obs.Json.str_mem row "type" = Some ty) rows

(* A gauge's value in the stream's closing metric_snapshot row. *)
let snapshot_gauge sink name =
  match List.rev (of_type "metric_snapshot" (parsed_lines sink)) with
  | closing :: _ -> (
    match Faros_obs.Json.mem closing "metrics" with
    | Some (Faros_obs.Json.List ms) -> (
      match
        List.find_opt (fun m -> Faros_obs.Json.str_mem m "name" = Some name) ms
      with
      | Some m -> Option.value ~default:0 (Faros_obs.Json.int_mem m "value")
      | None -> Alcotest.failf "snapshot has no %s" name)
    | _ -> Alcotest.fail "snapshot without metrics")
  | [] -> Alcotest.fail "no metric_snapshot row"

let campaign_obs_tests =
  [
    Alcotest.test_case
      "profiled campaign streams all six event types, dropping nothing" `Slow
      (fun () ->
        let samples =
          Campaign.filter ~glob:"reflective_*" (Faros_corpus.Registry.all ())
          @ Campaign.filter ~glob:"skype_s0" (Faros_corpus.Registry.all ())
        in
        check_b "slice non-trivial" true (List.length samples >= 2);
        let plain = Campaign.run ~workers:2 samples in
        let sink = Faros_obs.Sink.create () in
        let progress = ref 0 in
        let observed =
          Campaign.run ~workers:2 ~profile:true ~sink ~farm_metrics:true
            ~on_progress:(fun ~completed ~total:_ _ -> progress := completed)
            samples
        in
        (* observability must not move any verdict *)
        Alcotest.(check (list string))
          "verdicts unchanged"
          (List.map
             (fun (r : Campaign.job_result) ->
               r.jr_id ^ ":" ^ Campaign.verdict_name r.jr_verdict)
             plain.results)
          (List.map
             (fun (r : Campaign.job_result) ->
               r.jr_id ^ ":" ^ Campaign.verdict_name r.jr_verdict)
             observed.results);
        check "progress saw every result" (List.length samples) !progress;
        (* every job ran on a known worker and shipped a profile *)
        List.iter
          (fun (r : Campaign.job_result) ->
            check_b (r.jr_id ^ " has a worker") true (r.jr_worker >= 0);
            check_b
              (r.jr_id ^ " worker within spawned range")
              true
              (r.jr_worker < observed.spawned);
            check_b (r.jr_id ^ " profile enabled") true
              (Faros_obs.Profile.enabled r.jr_profile))
          observed.results;
        (* the fleet-merged profile covers the whole pipeline *)
        let paths =
          List.map
            (fun (s : Faros_obs.Profile.span) -> s.sp_path)
            (Faros_obs.Profile.spans observed.profile)
        in
        List.iter
          (fun p -> check_b ("span " ^ p) true (List.mem p paths))
          [
            "farm.job.setup"; "farm.job.run"; "farm.job.run/replay";
            "farm.job.run/replay/kernel.syscall"; "farm.job.run/graph.enrich";
            "farm.merge";
          ];
        (* instruction-level work is counted, never spanned: a span per
           instruction would time its own clock reads *)
        List.iter
          (fun p ->
            List.iter
              (fun name ->
                check_b
                  (Printf.sprintf "%s names no per-instruction span" p)
                  false
                  (contains ~needle:name p))
              [
                "vm.step"; "vm.hooks"; "dift.precheck"; "dift.propagate";
                "detector.check";
              ])
          paths;
        check_b "job count on farm.job.run" true
          ((List.find
              (fun (s : Faros_obs.Profile.span) -> s.sp_path = "farm.job.run")
              (Faros_obs.Profile.spans observed.profile))
             .sp_count = List.length samples);
        (* one stream, zero drops, all six schema types, all valid JSONL *)
        check "zero drops" 0 (Faros_obs.Sink.dropped sink);
        check_b "events buffered" true (Faros_obs.Sink.events sink > 0);
        (match Faros_obs.Json.well_formed_lines (Faros_obs.Sink.contents sink)
         with
        | Ok n -> check "checker agrees with counter" (Faros_obs.Sink.events sink) n
        | Error (line, e) -> Alcotest.failf "line %d: %s" line e);
        let stream = Faros_obs.Sink.contents sink in
        List.iter
          (fun ty ->
            check_b ("stream has " ^ ty) true
              (contains ~needle:(Printf.sprintf {|"type":"%s"|} ty) stream))
          [
            "metric_snapshot"; "trace_event"; "series_point"; "profile_span";
            "job_lifecycle"; "graph_flag";
          ];
        (* the trace rows use worker lanes (pid = worker index), and the
           Chrome export renders exactly those rows, in stream order *)
        let rows = of_type "trace_event" (parsed_lines sink) in
        check_b "trace rows streamed" true (rows <> []);
        List.iter
          (fun row ->
            match Faros_obs.Json.int_mem row "pid" with
            | Some pid ->
              check_b "pid is a worker lane" true
                (pid >= 0 && pid < observed.spawned)
            | None -> Alcotest.fail "trace row without pid")
          rows;
        let chrome_events =
          match Faros_obs.Json.parse (Faros_obs.Sink.to_chrome_json sink) with
          | Ok doc -> (
            match Faros_obs.Json.mem doc "traceEvents" with
            | Some (Faros_obs.Json.List evs) -> evs
            | _ -> Alcotest.fail "no traceEvents array")
          | Error e -> Alcotest.failf "Chrome export malformed: %s" e
        in
        let lanes row =
          (Faros_obs.Json.int_mem row "pid", Faros_obs.Json.int_mem row "tid")
        in
        check "one Chrome event per trace row" (List.length rows)
          (List.length chrome_events);
        check_b "same lanes in the same order" true
          (List.map lanes rows = List.map lanes chrome_events);
        (* farm telemetry gauges landed in the merged registry *)
        let gauge name =
          Faros_obs.Metrics.gauge_value
            (Faros_obs.Metrics.gauge observed.metrics name)
        in
        check "requested workers gauge" 2 (gauge "farm.workers.requested");
        check "spawned gauge" observed.spawned (gauge "farm.workers.spawned");
        (* any one worker may legitimately run no job; the per-worker
           gauges must account for every job between them *)
        check "per-worker jobs gauges" (List.length samples)
          (List.fold_left ( + ) 0
             (List.init observed.spawned (fun i ->
                  gauge (Printf.sprintf "farm.worker.%d.jobs" i))));
        check_b "snapshot gauges present" true
          (gauge "corpus.snapshot.images" > 0
          && gauge "corpus.snapshot.late_builds" = 0);
        (* the gauge freezes just before the closing metric_snapshot is
           emitted, so it counts every line except that one *)
        check "sink event count frozen into the registry"
          (Faros_obs.Sink.events sink - 1)
          (gauge "obs.sink.events");
        check "sink drop count frozen into the registry" 0
          (gauge "obs.sink.dropped"));
    Alcotest.test_case "defaults leave the campaign observability-free" `Quick
      (fun () ->
        let c = run_ids [ "reflective_dll_inject" ] in
        check_b "merged profile disabled" false
          (Faros_obs.Profile.enabled c.profile);
        List.iter
          (fun (r : Campaign.job_result) ->
            check_b "job profile disabled" false
              (Faros_obs.Profile.enabled r.jr_profile);
            check_b "no sink shipped" false
              (Faros_obs.Sink.enabled r.jr_sink))
          c.results);
    Alcotest.test_case "trace rows a job drops past its cap are counted"
      `Slow (fun () ->
        let sample =
          match Faros_corpus.Registry.find "netd_inject_500" with
          | Some s -> s
          | None -> Alcotest.fail "missing corpus sample"
        in
        (* the same sample analyzed alone, into an unbounded sink *)
        let alone = Faros_obs.Sink.create () in
        ignore (Faros_corpus.Scenario.analyze ~sink:alone sample.scenario);
        let events = Faros_obs.Sink.events alone in
        let sink = Faros_obs.Sink.create () in
        ignore (Campaign.run ~sink [ sample ]);
        let kept = List.length (Faros_obs.Sink.trace_rows sink) in
        check_b "the job hit its cap" true (kept < events);
        check "kept + dropped = every event" events
          (kept + Faros_obs.Sink.dropped sink);
        check_b "the closing snapshot counts the drops" true
          (snapshot_gauge sink "obs.sink.dropped" > 0));
  ]

(* -- serial/parallel equivalence ------------------------------------------ *)

(* Everything deterministic about a campaign, as one string: verdicts and
   counters per sample, the mismatch list, the rendered matrix, the
   classic summary, and the merged metrics registry.  Wall-clock fields
   are the only thing left out. *)
let fingerprint (c : Campaign.t) =
  String.concat "\n"
    (List.map
       (fun (r : Campaign.job_result) ->
         Printf.sprintf "%s %s %s %b %b %d %d %d %d %d %d %d %d %d %d %b"
           r.jr_id r.jr_category
           (Campaign.verdict_name r.jr_verdict)
           r.jr_diverged r.jr_mismatch r.jr_record_ticks r.jr_replay_ticks
           r.jr_syscalls r.jr_tainted_bytes r.jr_interned_provs
           r.jr_graph_nodes r.jr_graph_edges r.jr_flag_sites r.jr_slice_nodes
           r.jr_slice_origins r.jr_netflow_origin)
       c.results
    @ c.mismatches
    @ [
        Fmt.str "%a" Campaign.pp_matrix c;
        Fmt.str "%a" Campaign.pp_summary c;
        Faros_obs.Json.to_string (Faros_obs.Metrics.to_json c.metrics);
      ])

let equivalence_tests =
  [
    Alcotest.test_case "campaign -j 4 is byte-identical to serial" `Slow
      (fun () ->
        let serial = Campaign.run ~workers:1 (Faros_corpus.Registry.all ()) in
        let parallel = Campaign.run ~workers:4 (Faros_corpus.Registry.all ()) in
        check "full corpus" 130 (List.length serial.results);
        check_s "identical fingerprints" (fingerprint serial)
          (fingerprint parallel);
        check_b "both ok" true (Campaign.ok serial && Campaign.ok parallel));
  ]

(* -- what a job allocates ---------------------------------------------------- *)

(* Words allocated straight into the major heap while [f] runs: every
   block over 256 words ([Max_young_wosize]) goes there and paces the
   major collector, whose cycles stop every worker domain.  The minor
   heap's survivors are promoted words, counted apart.  The pool has
   joined its domains when [Campaign.run] returns, and a joined domain's
   counts are folded into [Gc.quick_stat]'s. *)
let direct_major_words f =
  let words () =
    let s = Gc.quick_stat () in
    s.major_words -. s.promoted_words
  in
  let before = words () in
  let r = f () in
  (r, words () -. before)

let budget_tests =
  [
    Alcotest.test_case "a sweep1k job allocates under 32,000 major-heap words"
      `Quick (fun () ->
        let samples =
          List.filteri (fun i _ -> i mod 10 = 0) (Faros_corpus.Registry.sweep1k ())
        in
        let campaign () = Campaign.run ~workers:1 samples in
        (* the first campaign in a process also pays for one-time set-up;
           from the second on, the figure repeats within a few words a
           job *)
        ignore (campaign ());
        let c, words = direct_major_words campaign in
        check "every 10th sample" 110 (List.length c.results);
        let per_job = int_of_float words / List.length c.results in
        if per_job >= 32_000 then
          Alcotest.failf "%d major-heap words per job, budget 32,000" per_job);
  ]

(* -- filtering ------------------------------------------------------------ *)

let glob_tests =
  [
    Alcotest.test_case "glob matching" `Quick (fun () ->
        let m pat s = Campaign.glob_match ~pat s in
        check_b "literal" true (m "skype_s0" "skype_s0");
        check_b "star prefix" true (m "*_s0" "skype_s0");
        check_b "star suffix" true (m "skype*" "skype_s2");
        check_b "star middle" true (m "a*c" "abbbc");
        check_b "star empty run" true (m "a*c" "ac");
        check_b "question mark" true (m "skype_s?" "skype_s2");
        check_b "question needs a char" false (m "skype_s?" "skype_s");
        check_b "no partial match" false (m "skype" "skype_s0");
        check_b "star alone" true (m "*" ""));
    Alcotest.test_case "filter keeps registry order" `Quick (fun () ->
        let ids =
          List.map
            (fun (s : Faros_corpus.Registry.sample) -> s.id)
            (Campaign.filter ~glob:"applet_*" (Faros_corpus.Registry.all ()))
        in
        check "ten applets" 10 (List.length ids);
        check_s "first" "applet_acceleration" (List.hd ids));
  ]

let () =
  Alcotest.run "faros_farm"
    [
      ("pool", pool_tests);
      ("pool-telemetry", telemetry_pool_tests);
      ("campaign", campaign_tests);
      ("campaign-observability", campaign_obs_tests);
      ("equivalence", equivalence_tests);
      ("allocation", budget_tests);
      ("glob", glob_tests);
    ]

(* Stateful property: ANY random campaign over ANY registry subset is
   byte-identical serial vs parallel.

   The generator draws a random multiset of samples (attacks, generated
   sweep points of every kind, and the deliberately crashing hidden
   sample, so the Error path is covered too) and the property runs the
   same subset through [Campaign.run] at workers=1 and workers=4,
   requiring identical results, mismatch lists, matrices and merged
   metric registries — the farm's determinism contract with work
   stealing on.

   FAROS_FARM_DOMAINS=4 forces four real domains even on a single-core
   CI host (the pool otherwise caps at the recommended domain count), so
   the parallel leg genuinely exercises cross-domain scheduling and
   stealing.  QCheck shrinks a failing subset toward the smallest sample
   list that still diverges — the repro a scheduler bug report needs. *)

let () = Unix.putenv "FAROS_FARM_DOMAINS" "4"

(* The draw pool: cheap-but-diverse samples.  Uneven job lengths on
   purpose (idle-loop victims next to hundred-tick self-injects) so the
   4-worker leg actually steals. *)
let pool : Faros_corpus.Registry.sample array =
  let sweep_picks =
    List.filter
      (fun (s : Faros_corpus.Registry.sample) ->
        List.mem s.id
          [
            "swp_self_keep_c1_b016_s00"; "swp_self_scrub_c2_b064_s01";
            "swp_refl_notepad_keep_c4_b016_s00"; "swp_iat_p1604_keep_b016_s00";
            "swp_drop_c2_b064_s00"; "swp_launder_c1_s00";
          ])
      (Faros_corpus.Registry.sweep1k ())
  in
  Array.of_list
    (Faros_corpus.Registry.attacks ()
    @ sweep_picks
    @ [ Faros_corpus.Registry.crash_test () ])

(* The worker-count-independent projection of a campaign: everything but
   wall clocks and worker indices. *)
let fingerprint (c : Faros_farm.Campaign.t) =
  String.concat "\n"
    (List.map
       (fun (r : Faros_farm.Campaign.job_result) ->
         Printf.sprintf "%s %s %s %s %b %b %d %d %d %d %d %d %d %d %d %d %b"
           r.jr_id r.jr_category
           (Faros_farm.Campaign.verdict_name r.jr_verdict)
           (Faros_farm.Campaign.verdict_detail r.jr_verdict)
           r.jr_diverged r.jr_mismatch r.jr_record_ticks r.jr_replay_ticks
           r.jr_syscalls r.jr_tainted_bytes r.jr_interned_provs
           r.jr_graph_nodes r.jr_graph_edges r.jr_flag_sites r.jr_slice_nodes
           r.jr_slice_origins r.jr_netflow_origin)
       c.results
    @ c.mismatches
    @ [
        Fmt.str "%a" Faros_farm.Campaign.pp_matrix c;
        Fmt.str "%a" Faros_farm.Campaign.pp_summary c;
        Faros_obs.Json.to_string (Faros_obs.Metrics.to_json c.metrics);
      ])

let serial_equals_parallel indices =
  let samples = List.map (fun i -> pool.(i)) indices in
  let run workers = Faros_farm.Campaign.run ~workers samples in
  fingerprint (run 1) = fingerprint (run 4)

let arb_subset =
  QCheck.(list_of_size Gen.(1 -- 10) (int_bound (Array.length pool - 1)))

let prop_serial_equals_parallel =
  QCheck.Test.make ~name:"campaign serial = campaign -j4 (stealing on)"
    ~count:8 arb_subset serial_equals_parallel

let () =
  Alcotest.run "pbt_farm"
    [
      ( "farm",
        [ QCheck_alcotest.to_alcotest prop_serial_equals_parallel ] );
    ]

(* faros — command-line front end.

     faros list                     enumerate the sample corpus
     faros run <id> [--policy P] [--whitelist-jit] [--verbose]
                                    record + replay a sample under FAROS
     faros record <id> -o t.ftr     record and save a trace file
     faros replay <id> -i t.ftr [--policy P]
                                    analyze a previously saved trace
     faros events <id>              Cuckoo-style event trace of a sample
     faros malfind <id>             snapshot forensics on a sample
     faros compare <id>             FAROS vs Cuckoo/malfind on one sample
     faros ps <id>                  end-of-run pslist of a sample
     faros stats <id>               full metrics registry after analysis
     faros check-json <file> [--jsonl]
                                    JSON / JSON-Lines well-formedness check
     faros profile run <id>         span-profile one sample, print hotspots
     faros taint <id>               post-analysis taint map
     faros strings <id>             provenance-aware strings
     faros disasm <id>              disassemble a sample's images
     faros campaign [-j N] [--corpus SET] [--filter GLOB] [--json OUT] [--csv OUT]
                    [--profile] [--stats] [--progress]
                    [--jsonl-out OUT] [--trace-out OUT] [--graph-out DIR]
                                    run the corpus on a parallel worker pool
     faros query <dir> [--run ID] [--origins] [--flows SPEC]
                                    cross-run whodunit over a segment store
     faros policies                 list the available DIFT policies *)

let pp = Format.std_formatter

let list_cmd netd =
  let samples =
    Faros_corpus.Registry.all ()
    @ Faros_corpus.Registry.transient_attacks ()
    @ Faros_corpus.Registry.evasive_attacks ()
    @ Faros_corpus.Registry.extended_attacks ()
    @ Faros_corpus.Registry.extras ()
    @ (if netd then
         Faros_corpus.Registry.netd_showcase ()
         @ Faros_corpus.Registry.netd_sweeps ()
       else [])
  in
  Fmt.pf pp "%-40s %-22s %s@." "id" "category" "expected";
  List.iter
    (fun (s : Faros_corpus.Registry.sample) ->
      Fmt.pf pp "%-40s %-22s %s@." s.id
        (Fmt.str "%a" Faros_corpus.Registry.pp_category s.category)
        (match s.expected with
        | Faros_corpus.Registry.Expect_flag -> "flag"
        | Expect_clean -> "clean"))
    samples;
  Fmt.pf pp "%d samples@." (List.length samples);
  0

(* Run [f] on the sample [id] names; an unknown id is reported and the
   command exits 1. *)
let with_sample id f =
  match Faros_corpus.Registry.find id with
  | Some sample -> f sample
  | None ->
    prerr_endline (Printf.sprintf "unknown sample %S (try `faros list`)" id);
    1

(* Run [f] on the configuration the policy and whitelist flags select; an
   unknown policy is reported and the command exits 1. *)
let with_config ~policy ~whitelist_jit f =
  let config =
    if whitelist_jit then
      Core.Config.with_whitelist Core.Whitelist.jit_default Core.Config.default
    else Core.Config.default
  in
  match policy with
  | None -> f config
  | Some name -> (
    match
      List.find_opt
        (fun (p : Faros_dift.Policy.t) -> p.policy_name = name)
        Faros_dift.Policy.all
    with
    | Some p -> f (Core.Config.with_policy p config)
    | None ->
      prerr_endline
        (Printf.sprintf "unknown policy %S (try `faros policies`)" name);
      1)

(* The verdict line's text; each command pads its own label. *)
let verdict_text report =
  if Core.Report.flagged report then "IN-MEMORY INJECTION FLAGGED" else "clean"

let print_outcome_json (outcome : Core.Analysis.outcome) =
  Fmt.pf pp "%s@."
    (Faros_obs.Json.to_string
    @@ Core.Report.to_json ~store:outcome.faros.engine.store
       ~name_of_asid:(Core.Faros_plugin.name_of_asid outcome.faros.kernel)
       outcome.report);
  0

let print_outcome sample_id verbose (outcome : Core.Analysis.outcome) =
  Fmt.pf pp "sample:       %s@." sample_id;
  Fmt.pf pp "record:       %d instructions, %d packets, %d rx bytes@."
    outcome.trace.final_tick
    (Faros_replay.Trace.packet_count outcome.trace)
    (Faros_replay.Trace.total_rx_bytes outcome.trace);
  Fmt.pf pp "replay:       %d instructions, diverged: %b@."
    outcome.replay.replay_ticks outcome.replay.diverged;
  let s = Faros_dift.Engine.stats outcome.faros.engine in
  Fmt.pf pp
    "taint:        %d instrs processed, %d tainted bytes, tags: %d netflow / %d process / %d file@."
    s.instrs s.tainted_bytes s.netflow_tags s.process_tags s.file_tags;
  Fmt.pf pp "verdict:      %s@." (verdict_text outcome.report);
  Fmt.pf pp "%s@." (Core.Report.summary outcome.report);
  if Core.Report.flagged outcome.report || verbose then
    Core.Faros_plugin.pp_report pp outcome.faros;
  0

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* Write an export to [path], or to stdout for "-". *)
let emit data = function
  | "-" -> print_string data
  | path ->
    write_file path data;
    Fmt.pf pp "wrote %s@." path

let run_cmd id policy whitelist_jit verbose json trace_out series_out =
  with_sample id @@ fun sample ->
  with_config ~policy ~whitelist_jit @@ fun config ->
  let sink =
    match trace_out with
    | None -> Faros_obs.Sink.null
    | Some _ -> Faros_obs.Sink.create ()
  in
  let telemetry =
    match series_out with
    | None -> None
    | Some _ -> Some (Core.Telemetry.create ())
  in
  let outcome =
    Faros_corpus.Scenario.analyze ~config ~sink ?telemetry sample.scenario
  in
  let status =
    if json then print_outcome_json outcome
    else print_outcome sample.id verbose outcome
  in
  (match trace_out with
  | Some path ->
    write_file path (Faros_obs.Sink.to_chrome_json sink);
    Fmt.pf pp "trace:        %d events (%d dropped) -> %s@."
      (Faros_obs.Sink.events sink)
      (Faros_obs.Sink.dropped sink)
      path
  | None -> ());
  (match (series_out, telemetry) with
  | Some path, Some t ->
    let data =
      if Filename.check_suffix path ".json" then
        Faros_obs.Json.to_string (Core.Telemetry.to_json t)
      else Core.Telemetry.to_csv t
    in
    write_file path data;
    Fmt.pf pp "series:       %d sample(s) -> %s@."
      (Faros_obs.Series.total (Core.Telemetry.series t))
      path
  | _ -> ());
  status

(* Full metrics registry after analyzing one sample. *)
let stats_cmd id policy =
  with_sample id @@ fun sample ->
  with_config ~policy ~whitelist_jit:false @@ fun config ->
  let outcome = Faros_corpus.Scenario.analyze ~config sample.scenario in
  Fmt.pf pp "sample:  %s@." sample.id;
  Fmt.pf pp "verdict: %s@." (verdict_text outcome.report);
  Faros_obs.Metrics.pp_table pp outcome.faros.metrics;
  0

(* JSON well-formedness check (the repo carries no external JSON parser).
   With --jsonl every non-blank line must be its own well-formed
   document — the unified streaming sink's format. *)
let check_json_cmd jsonl path =
  let data = read_file path in
  if jsonl then
    match Faros_obs.Json.well_formed_lines data with
    | Ok lines ->
      Fmt.pf pp "%s: well-formed JSONL (%d lines, %d bytes)@." path lines
        (String.length data);
      0
    | Error (line, msg) ->
      Fmt.epr "%s: malformed JSONL at line %d: %s@." path line msg;
      1
  else
    match Faros_obs.Json.well_formed data with
    | Ok () ->
      Fmt.pf pp "%s: well-formed JSON (%d bytes)@." path (String.length data);
      0
    | Error msg ->
      Fmt.epr "%s: malformed JSON: %s@." path msg;
      1

(* Record a sample and save its trace file. *)
let record_cmd id out =
  with_sample id @@ fun sample ->
  let _kernel, trace = Faros_corpus.Scenario.record sample.scenario in
  let data = Faros_replay.Trace.serialize trace in
  write_file out data;
  Fmt.pf pp "recorded %s: %d instructions, %d events, %d trace bytes -> %s@."
    sample.id trace.final_tick
    (List.length trace.events)
    (String.length data) out;
  0

(* Analyze a previously saved trace under FAROS. *)
let replay_cmd id input policy verbose =
  with_sample id @@ fun sample ->
  with_config ~policy ~whitelist_jit:false @@ fun config ->
  match Faros_replay.Trace.parse (read_file input) with
  | exception Faros_replay.Trace.Bad_trace m ->
    Fmt.epr "bad trace file %s: %s@." input m;
    1
  | trace ->
    let faros_ref = ref None in
    let result =
      Faros_corpus.Scenario.replay_with sample.scenario
        ~plugins:(fun kernel ->
          let faros = Core.Faros_plugin.create ~config kernel in
          faros_ref := Some faros;
          [ Core.Faros_plugin.plugin faros ])
        trace
    in
    let faros = Option.get !faros_ref in
    let report = Core.Faros_plugin.report faros in
    Fmt.pf pp "replayed %s from %s: %d instructions, diverged: %b@." sample.id
      input result.replay_ticks result.diverged;
    Fmt.pf pp "verdict: %s@." (verdict_text report);
    if Core.Report.flagged report || verbose then
      Core.Faros_plugin.pp_report pp faros;
    0

(* Cuckoo-style event trace of a live run. *)
let events_cmd id =
  with_sample id @@ fun sample ->
  let report = ref None in
  let _kernel, _trace =
    Faros_replay.Recorder.record ~max_ticks:sample.scenario.max_ticks
      ~plugins:(fun kernel ->
        let r, plugin = Faros_sandbox.Cuckoo.plugin kernel in
        report := Some r;
        [ plugin ])
      ~setup:(Faros_corpus.Scenario.setup_record sample.scenario)
      ~boot:(Faros_corpus.Scenario.boot sample.scenario)
      ()
  in
  let r = Option.get !report in
  Fmt.pf pp "%a@." Faros_sandbox.Cuckoo.pp_summary r;
  Fmt.pf pp "@.hooked API calls (newest first):@.";
  List.iter
    (fun (c : Faros_sandbox.Cuckoo.api_call) ->
      Fmt.pf pp "  %-24s %s(%s)@." c.ac_process c.ac_api
        (String.concat ", "
           (List.map string_of_int (Array.to_list c.ac_args))))
    r.api_calls;
  0

(* Snapshot forensics: pslist, vadinfo suspects, malfind findings. *)
let malfind_cmd id =
  with_sample id @@ fun sample ->
  let kernel, _ = Faros_corpus.Scenario.record sample.scenario in
  let dump = Faros_sandbox.Memdump.take kernel in
  Fmt.pf pp "pslist:@.";
  List.iter
    (fun pr -> Fmt.pf pp "  %a@." Faros_sandbox.Volatility.pp_process pr)
    (Faros_sandbox.Volatility.pslist dump);
  let suspects = Faros_sandbox.Volatility.hollowing_suspects dump in
  Fmt.pf pp "hollowing suspects: %s@."
    (if suspects = [] then "none"
     else String.concat ", " (List.map string_of_int suspects));
  (match Faros_sandbox.Malfind.scan dump with
  | [] -> Fmt.pf pp "malfind: no injected regions found@."
  | findings ->
    List.iter
      (fun f -> Fmt.pf pp "malfind: %a@." Faros_sandbox.Malfind.pp_finding f)
      findings);
  0

(* Disassemble every image a sample's scenario installs. *)
let disasm_cmd id =
  with_sample id @@ fun sample ->
  List.iter
    (fun (path, (image : Faros_os.Pe.t)) ->
      Fmt.pf pp "@.=== %s (base 0x%08X, entry 0x%08X) ===@." path image.base
        image.entry;
      List.iter
        (fun (sec : Faros_os.Pe.section) ->
          List.iter
            (fun (off, instr) ->
              Fmt.pf pp "0x%08X  %a@." (sec.sec_vaddr + off) Faros_vm.Disasm.pp
                instr)
            (Faros_vm.Disasm.buffer (Bytes.of_string sec.sec_data)))
        image.sections;
      if image.imports <> [] then
        Fmt.pf pp "imports: %s@."
          (String.concat ", " (List.map fst image.imports)))
    sample.scenario.images;
  0

(* Post-analysis taint map: where tainted data sits after the replay. *)
let taint_cmd id =
  with_sample id @@ fun sample ->
  let outcome = Faros_corpus.Scenario.analyze sample.scenario in
  Fmt.pf pp "%-20s %-10s %s@." "process" "tainted" "netflow-tainted";
  List.iter
    (fun (name, total, netflow) ->
      Fmt.pf pp "%-20s %-10d %d@." name total netflow)
    (Core.Prov_query.summary_by_process outcome.faros);
  Fmt.pf pp "@.tainted regions:@.";
  List.iter
    (fun r -> Fmt.pf pp "%a@." (Core.Prov_query.pp_region ~faros:outcome.faros) r)
    (Core.Prov_query.tainted_regions outcome.faros);
  0

(* Provenance-aware strings over netflow-tainted memory. *)
let strings_cmd id =
  with_sample id @@ fun sample ->
  let outcome = Faros_corpus.Scenario.analyze sample.scenario in
  let found = Core.Prov_query.strings outcome.faros in
  List.iter
    (fun (t : Core.Prov_query.tainted_string) ->
      Fmt.pf pp "%-20s 0x%08X %-24s %s@." t.ts_process t.ts_vaddr
        (Printf.sprintf "%S" t.ts_text)
        (Core.Report.render_provenance ~store:outcome.faros.engine.store
           ~name_of_asid:(Core.Faros_plugin.name_of_asid outcome.faros.kernel)
           t.ts_prov))
    found;
  Fmt.pf pp "%d tainted string(s)@." (List.length found);
  0

(* Run a corpus campaign on a worker pool and compare verdicts to
   expectations: the CI entry point. *)
let campaign_cmd workers corpus filter policy json_out csv_out tick_budget
    deadline profile stats progress jsonl_out trace_out graph_out =
  with_config ~policy ~whitelist_jit:false @@ fun config ->
  let samples =
    match corpus with
    | `Core -> Faros_corpus.Registry.all ()
    | `Netd -> Faros_corpus.Registry.netd_sweeps ()
    | `Sweep1k -> Faros_corpus.Registry.sweep1k ()
    | `Full ->
      Faros_corpus.Registry.all () @ Faros_corpus.Registry.netd_sweeps ()
  in
  let samples =
    match filter with
    | None -> samples
    | Some glob -> Faros_farm.Campaign.filter ~glob samples
  in
  match samples with
  | [] ->
    prerr_endline "no samples match the filter (try `faros list`)";
    1
  | samples ->
    (* One stream serves both outputs: --jsonl-out writes its lines,
       --trace-out renders its trace_event rows as a Chrome trace. *)
    let sink =
      if jsonl_out = None && trace_out = None then Faros_obs.Sink.null
      else Faros_obs.Sink.create ()
    in
    let on_progress =
      if not progress then None
      else
        Some
          (fun ~completed ~total (r : Faros_farm.Campaign.job_result) ->
            Fmt.epr "[%d/%d] %s: %s@." completed total r.jr_id
              (Faros_farm.Campaign.verdict_name r.jr_verdict))
    in
    let c =
      Faros_farm.Campaign.run ~workers ~config ?tick_budget ?deadline
        ~graph_segments:(graph_out <> None) ~profile ~sink
        ~farm_metrics:(profile || stats || jsonl_out <> None)
        ?on_progress samples
    in
    Option.iter
      (emit (Faros_obs.Json.to_string (Faros_farm.Campaign.to_json c)))
      json_out;
    Option.iter (emit (Faros_farm.Campaign.to_csv c)) csv_out;
    (* one segment file per sample, submission order — the store input *)
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let written =
          List.fold_left
            (fun n (r : Faros_farm.Campaign.job_result) ->
              match r.jr_segments with
              | [] -> n
              | rows ->
                write_file
                  (Filename.concat dir (r.jr_id ^ ".jsonl"))
                  (String.concat "\n" rows ^ "\n");
                n + 1)
            0 c.results
        in
        if json_out <> Some "-" && csv_out <> Some "-" then
          Fmt.pf pp "wrote %s/ (%d segment file(s))@." dir written)
      graph_out;
    if json_out <> Some "-" && csv_out <> Some "-" then begin
      Faros_farm.Campaign.pp_matrix pp c;
      Faros_farm.Campaign.pp_summary pp c;
      if profile || stats then Faros_farm.Campaign.pp_workers pp c;
      if stats then Faros_obs.Metrics.pp_table pp c.metrics;
      if profile then begin
        Fmt.pf pp "@.hotspots (fleet-merged, self time):@.";
        Faros_obs.Profile.pp_hotspots pp c.profile
      end
    end;
    Option.iter
      (fun path ->
        write_file path (Faros_obs.Sink.contents sink);
        Fmt.pf pp "wrote %s (%d events, %d dropped)@." path
          (Faros_obs.Sink.events sink)
          (Faros_obs.Sink.dropped sink))
      jsonl_out;
    Option.iter
      (fun path ->
        write_file path (Faros_obs.Sink.to_chrome_json sink);
        Fmt.pf pp "wrote %s (%d trace events)@." path
          (Faros_obs.Sink.trace_count sink))
      trace_out;
    if Faros_farm.Campaign.ok c then 0 else 1

(* The registry counters that report instruction-level work in
   [profile run]: a span per instruction would time its own clock reads. *)
let instr_counters =
  [ "engine.instrs"; "dift.fastpath.hits"; "dift.fastpath.misses";
    "detector.loads_checked" ]

(* Profile one sample end to end: record, replay under FAROS, and render
   the span tree plus the hotspot table.  The span structure is
   deterministic (it mirrors the deterministic replay); only the numbers
   carry wall time.  The vm/dift split is Table V's: the recorded trace
   is replayed once more without plugins, and the rest of the profiled
   [replay] span is the analysis. *)
let profile_run_cmd id policy top tree json_out jsonl_out =
  with_sample id @@ fun sample ->
  with_config ~policy ~whitelist_jit:false @@ fun config ->
  let profile = Faros_obs.Profile.create () in
  let outcome =
    Faros_corpus.Scenario.analyze ~config ~profile sample.scenario
  in
  Fmt.pf pp "sample:   %s@." sample.id;
  Fmt.pf pp "verdict:  %s@." (verdict_text outcome.report);
  Fmt.pf pp "profiled: %.3f ms over %d span(s)@."
    (float_of_int (Faros_obs.Profile.total_ns profile) /. 1e6)
    (List.length (Faros_obs.Profile.spans profile));
  if tree then begin
    Fmt.pf pp "@.";
    Faros_obs.Profile.pp_tree pp profile
  end;
  Fmt.pf pp "@.hotspots (self time):@.";
  Faros_obs.Profile.pp_hotspots ?top pp profile;
  Fmt.pf pp "@.instruction level (counters):@.";
  Faros_obs.Metrics.fold outcome.faros.metrics
    (fun () name m ->
      if List.mem name instr_counters then
        match m with
        | Faros_obs.Metrics.Counter c ->
          Fmt.pf pp "  %-24s %12d@." name (Faros_obs.Metrics.counter_value c)
        | Gauge g ->
          Fmt.pf pp "  %-24s %12d@." name (Faros_obs.Metrics.gauge_value g)
        | Histogram _ -> ())
    ();
  let t0 = Unix.gettimeofday () in
  ignore (Faros_corpus.Scenario.replay_plain sample.scenario outcome.trace);
  let vm_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let replay_ms =
    List.fold_left
      (fun acc (sp : Faros_obs.Profile.span) ->
        if sp.sp_path = "replay" then float sp.sp_total_ns /. 1e6 else acc)
      0. (Faros_obs.Profile.spans profile)
  in
  Fmt.pf pp "@.replay split (vm: the trace replayed without plugins):@.";
  Fmt.pf pp "  %-24s %12.3f ms@." "vm" vm_ms;
  Fmt.pf pp "  %-24s %12.3f ms@." "dift" (replay_ms -. vm_ms);
  Option.iter
    (fun path ->
      write_file path
        (Faros_obs.Json.to_string (Faros_obs.Profile.to_json profile));
      Fmt.pf pp "wrote %s@." path)
    json_out;
  Option.iter
    (fun path ->
      let sink = Faros_obs.Sink.create () in
      List.iter
        (fun sp -> Faros_obs.Sink.profile_span sink ~source:sample.id sp)
        (Faros_obs.Profile.spans profile);
      Faros_obs.Sink.metric_snapshot sink ~source:sample.id
        outcome.faros.metrics;
      write_file path (Faros_obs.Sink.contents sink);
      Fmt.pf pp "wrote %s (%d events, %d dropped)@." path
        (Faros_obs.Sink.events sink)
        (Faros_obs.Sink.dropped sink))
    jsonl_out;
  0

let policies_cmd () =
  Fmt.pf pp "%-16s %-10s %-10s %-6s %-6s %s@." "name" "addr-deps" "ctrl-deps"
    "imm" "1-bit" "files";
  List.iter
    (fun (p : Faros_dift.Policy.t) ->
      Fmt.pf pp "%-16s %-10b %-10b %-6b %-6b %b@." p.policy_name p.address_deps
        p.control_deps p.taint_immediates p.single_bit p.track_files)
    Faros_dift.Policy.all;
  0

let compare_cmd id =
  with_sample id @@ fun sample ->
  let v = Faros_sandbox.Compare.run sample in
  Faros_sandbox.Compare.pp_header pp ();
  Faros_sandbox.Compare.pp_row pp v;
  Fmt.pf pp "hooked api calls seen by cuckoo: %d; raw syscalls it missed: %d@."
    v.v_api_calls v.v_raw_syscalls;
  0

let ps_cmd id =
  with_sample id @@ fun sample ->
  let kernel, _ = Faros_corpus.Scenario.record sample.scenario in
  let dump = Faros_sandbox.Memdump.take kernel in
  List.iter
    (fun p -> Fmt.pf pp "%a@." Faros_sandbox.Volatility.pp_process p)
    (Faros_sandbox.Volatility.pslist dump);
  0

(* The whodunit slices of one graph, as `graph` and `query` print them. *)
let pp_slices = function
  | [] -> Fmt.pf pp "slices:  (none - no flag sites)@."
  | slices ->
    Fmt.pf pp "slices:@.";
    List.iter
      (fun (s : Faros_graph.Slice.t) ->
        Fmt.pf pp "  %s <- %d node(s), %d origin(s)@."
          (Faros_graph.Graph.node_label s.sl_flag)
          (List.length s.sl_nodes)
          (List.length s.sl_origins);
        List.iter
          (fun chain ->
            Fmt.pf pp "    %s@." (Faros_graph.Slice.render_chain chain))
          s.sl_chains)
      slices

(* Build the attack graph for one sample: analyze with the online builder
   riding along as an extra plugin, enrich offline from shadow memory,
   then render a summary with the whodunit slices and/or export DOT/JSON.
   With --segments the builder runs streaming-only (no resident graph):
   deltas spill through the incremental segment writer to FILE, and the
   summary is printed from the store's reconstruction — byte-identical
   to the resident path. *)
let graph_cmd id policy dot_out json_out slice_only segments_out =
  with_sample id @@ fun sample ->
  with_config ~policy ~whitelist_jit:false @@ fun config ->
  let builder = ref None in
  let seg = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze ~config
      ~extra_plugins:(fun kernel faros ->
        let consumer, resident =
          match segments_out with
          | None -> (None, true)
          | Some path ->
            let oc = open_out_bin path in
            let sink = Faros_obs.Sink.channel oc in
            let w = Faros_query.Segment.writer ~sink ~run:sample.id () in
            seg := Some (path, oc, w);
            (Some (Faros_query.Segment.consume w), false)
        in
        let b =
          Faros_graph.Build.create ?consumer ~resident ~sample:sample.id ()
        in
        builder := Some b;
        [ Faros_graph.Build.plugin b ~kernel ~faros ])
      sample.scenario
  in
  let b = Option.get !builder in
  Faros_graph.Build.enrich b outcome.faros;
  let quiet = dot_out = Some "-" || json_out = Some "-" in
  let full =
    match !seg with
    | None -> Ok (Faros_graph.Build.graph b)
    | Some (path, oc, w) ->
      Faros_query.Segment.close w;
      close_out oc;
      let st = Faros_query.Segment.stats w in
      if not quiet then
        Fmt.pf pp
          "wrote %s (%d rows in %d segment(s), peak live %d node(s) / %d \
           edge(s))@."
          path st.st_rows st.st_segments st.st_peak_live_nodes
          st.st_peak_live_edges;
      let store = Faros_query.Store.create () in
      Result.bind (Faros_query.Store.ingest_file store path) (fun _ ->
          Faros_query.Store.run_graph store sample.id)
  in
  match full with
  | Error e ->
    Fmt.epr "bad segment stream: %s@." e;
    1
  | Ok full ->
  let slices = Faros_graph.Slice.slices full in
  let g, slices =
    if not slice_only then (full, slices)
    else begin
      (* restrict to the union of the whodunit slices; slices are
         recomputed so their ids match the renumbered view *)
      let keep_ids =
        List.concat_map
          (fun (s : Faros_graph.Slice.t) -> s.sl_nodes)
          slices
      in
      let g =
        Faros_graph.Graph.restrict full ~keep:(fun n ->
            List.mem n.Faros_graph.Graph.n_id keep_ids)
      in
      (g, Faros_graph.Slice.slices g)
    end
  in
  Option.iter (emit (Faros_graph.Export.to_dot g)) dot_out;
  Option.iter
    (emit (Faros_obs.Json.to_string (Faros_graph.Export.to_json ~slices g)))
    json_out;
  if dot_out <> Some "-" && json_out <> Some "-" then begin
    Fmt.pf pp "sample:  %s@." sample.id;
    Fmt.pf pp "graph:   %d nodes, %d edges%s@."
      (Faros_graph.Graph.node_count g)
      (Faros_graph.Graph.edge_count g)
      (if slice_only then " (whodunit slice)" else "");
    let nodes = Faros_graph.Graph.nodes g in
    let census =
      List.filter_map
        (fun kind ->
          let c =
            List.length
              (List.filter
                 (fun n -> Faros_graph.Graph.kind_name n = kind)
                 nodes)
          in
          if c = 0 then None else Some (Printf.sprintf "%s %d" kind c))
        [ "flow"; "process"; "file"; "module"; "region"; "flag" ]
    in
    Fmt.pf pp "nodes:   %s@."
      (if census = [] then "(empty)" else String.concat ", " census);
    pp_slices slices
  end;
  0

(* Query a campaign's segment store: per-run whodunit slices (the same
   rendering `faros graph` prints), cross-run origin ranking, flow
   lookups, and DOT/JSON export of the merged or per-run graph. *)
let query_cmd dir run_id origins flow_spec dot_out json_out =
  match Faros_query.Store.load ~dir with
  | Error e ->
    prerr_endline e;
    1
  | Ok store -> (
    let fail e =
      Fmt.epr "%s@." e;
      1
    in
    let quiet = dot_out = Some "-" || json_out = Some "-" in
    let export () =
      match (dot_out, json_out) with
      | None, None -> Ok ()
      | _ ->
        Result.bind
          (match run_id with
          | Some run -> Faros_query.Store.run_graph store run
          | None -> Faros_query.Store.merged_graph store)
          (fun g ->
            let slices = Faros_graph.Slice.slices g in
            Option.iter (emit (Faros_graph.Export.to_dot g)) dot_out;
            Option.iter
              (emit
                 (Faros_obs.Json.to_string (Faros_graph.Export.to_json ~slices g)))
              json_out;
            Ok ())
    in
    match export () with
    | Error e -> fail e
    | Ok () ->
      if quiet then 0
      else if origins then (
        match Faros_query.Store.origins store with
        | Error e -> fail e
        | Ok os ->
          let t = Faros_query.Store.totals store in
          Fmt.pf pp "origins: %d distinct origin(s) across %d flagged run(s)@."
            (List.length os) t.t_flag_runs;
          List.iter
            (fun (o : Faros_query.Store.origin) ->
              Fmt.pf pp "  %-44s %3d run(s)  %s@." o.o_label
                (List.length o.o_runs) o.o_ident)
            os;
          0)
      else (
        match flow_spec with
        | Some spec -> (
          match Faros_query.Store.flows store ~spec with
          | Error e -> fail e
          | Ok hits ->
            let hits =
              match run_id with
              | None -> hits
              | Some run ->
                List.filter
                  (fun (h : Faros_query.Store.flow_hit) -> h.fh_run = run)
                  hits
            in
            List.iter
              (fun (h : Faros_query.Store.flow_hit) ->
                Fmt.pf pp "  %-32s %-44s delivered %d, sent %d@." h.fh_run
                  h.fh_label h.fh_delivered h.fh_sent)
              hits;
            Fmt.pf pp "%d flow hit(s) for %S@." (List.length hits) spec;
            0)
        | None ->
          let t = Faros_query.Store.totals store in
          Fmt.pf pp "store:   %s@." dir;
          Fmt.pf pp "runs:    %d (%d complete), %d flagged@." t.t_runs
            t.t_complete t.t_flag_runs;
          Fmt.pf pp "rows:    %d (%d duplicate), %d node(s), %d edge(s)@."
            t.t_rows t.t_dups t.t_nodes t.t_edges;
          let runs =
            match run_id with
            | Some run -> [ run ]
            | None -> Faros_query.Store.runs store
          in
          let rc = ref 0 in
          List.iter
            (fun run ->
              match Faros_query.Store.run_graph store run with
              | Error e ->
                Fmt.epr "%s: %s@." run e;
                rc := 1
              | Ok g ->
                let slices = Faros_graph.Slice.slices g in
                (* print every run when asked for by name; otherwise only
                   the runs with flag sites — the whodunit set *)
                if slices <> [] || run_id <> None then begin
                  Fmt.pf pp "@.sample:  %s@." run;
                  Fmt.pf pp "graph:   %d nodes, %d edges@."
                    (Faros_graph.Graph.node_count g)
                    (Faros_graph.Graph.edge_count g);
                  pp_slices slices
                end)
            runs;
          !rc))

open Cmdliner

let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"SAMPLE")

let list_t =
  let netd =
    Arg.(
      value & flag
      & info [ "netd" ]
          ~doc:"Also list the server-daemon samples and sweep families")
  in
  Cmd.v (Cmd.info "list" ~doc:"List the sample corpus") Term.(const list_cmd $ netd)

let policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy" ] ~docv:"POLICY" ~doc:"DIFT propagation policy to use")

let run_t =
  let whitelist =
    Arg.(value & flag & info [ "whitelist-jit" ] ~doc:"Suppress known JIT hosts")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full report")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write structured trace events as Chrome trace_event JSON")
  in
  let series_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "Write the tick-sampled telemetry series (.json for JSON, \
             anything else for CSV)")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Analyze one sample with FAROS")
    Term.(
      const run_cmd $ id_arg $ policy_arg $ whitelist $ verbose $ json
      $ trace_out $ series_out)

let stats_t =
  Cmd.v
    (Cmd.info "stats" ~doc:"Analyze one sample and print the full metrics registry")
    Term.(const stats_cmd $ id_arg $ policy_arg)

let check_json_t =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let jsonl =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:"Validate as JSON Lines: every non-blank line on its own")
  in
  Cmd.v
    (Cmd.info "check-json" ~doc:"Check that a file is well-formed JSON")
    Term.(const check_json_cmd $ jsonl $ file_arg)

let compare_t =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare FAROS with Cuckoo/malfind on one sample")
    Term.(const compare_cmd $ id_arg)

let ps_t =
  Cmd.v (Cmd.info "ps" ~doc:"End-of-run process list") Term.(const ps_cmd $ id_arg)

let record_t =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a sample and save the trace")
    Term.(const record_cmd $ id_arg $ out)

let replay_t =
  let input =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Trace file to replay")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print the full report")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Analyze a saved trace under FAROS")
    Term.(const replay_cmd $ id_arg $ input $ policy_arg $ verbose)

let events_t =
  Cmd.v
    (Cmd.info "events" ~doc:"Cuckoo-style event trace of one sample")
    Term.(const events_cmd $ id_arg)

let malfind_t =
  Cmd.v
    (Cmd.info "malfind" ~doc:"Snapshot forensics on one sample")
    Term.(const malfind_cmd $ id_arg)

let taint_t =
  Cmd.v
    (Cmd.info "taint" ~doc:"Post-analysis taint map of one sample")
    Term.(const taint_cmd $ id_arg)

let disasm_t =
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a sample's images")
    Term.(const disasm_cmd $ id_arg)

let graph_t =
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write a Graphviz DOT export ($(b,-) for stdout)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a JSON export ($(b,-) for stdout)")
  in
  let slice =
    Arg.(
      value & flag
      & info [ "slice" ]
          ~doc:"Restrict the graph to the union of the whodunit slices")
  in
  let segments =
    Arg.(
      value
      & opt (some string) None
      & info [ "segments" ] ~docv:"FILE"
          ~doc:
            "Build streaming-only (no resident graph): spill JSONL segment \
             rows to $(docv) through the bounded-memory incremental writer, \
             then print the summary from the store's reconstruction")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Build the whole-system attack graph of one sample, with whodunit \
          slices from every flag site")
    Term.(
      const graph_cmd $ id_arg $ policy_arg $ dot_out $ json_out $ slice
      $ segments)

let strings_t =
  Cmd.v
    (Cmd.info "strings"
       ~doc:"Provenance-aware strings over netflow-tainted memory")
    Term.(const strings_cmd $ id_arg)

let campaign_t =
  let workers =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Number of worker domains")
  in
  let corpus =
    Arg.(
      value
      & opt
          (enum
             [
               ("core", `Core); ("netd", `Netd); ("sweep1k", `Sweep1k);
               ("full", `Full);
             ])
          `Core
      & info [ "corpus" ] ~docv:"SET"
          ~doc:
            "Sample set to run: $(b,core) (the 130-sample evaluation, the \
             default), $(b,netd) (the server-daemon sweep families), \
             $(b,sweep1k) (the generated 1,000+ sample behaviour-matrix \
             sweep), or $(b,full) (core + netd)")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"GLOB"
          ~doc:"Only run samples whose id matches the glob ($(b,*), $(b,?))")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the campaign report as JSON ($(b,-) for stdout)")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write one CSV row per sample ($(b,-) for stdout)")
  in
  let tick_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "tick-budget" ] ~docv:"TICKS"
          ~doc:"Override every scenario's own instruction budget")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-job wall-clock budget; overruns become timeout verdicts")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Profile every job and print the fleet-merged hotspot table plus \
             the per-worker utilization breakdown")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the merged metrics registry (including farm.worker.* \
             gauges) after the matrix")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:"Print one progress line per completed job on stderr")
  in
  let jsonl_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl-out" ] ~docv:"FILE"
          ~doc:
            "Write the unified streaming telemetry (job lifecycle, trace \
             events, series points, profile spans, metric snapshot) as JSON \
             Lines")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the fleet trace as Chrome trace_event JSON, one process \
             lane per worker")
  in
  let graph_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "graph-out" ] ~docv:"DIR"
          ~doc:
            "Stream every job's attack graph through the incremental segment \
             writer and write one $(b,DIR/<sample>.jsonl) file per sample — \
             the $(b,faros query) store input")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Analyze the corpus on a parallel worker pool; exit non-zero on any \
          verdict mismatch")
    Term.(
      const campaign_cmd $ workers $ corpus $ filter $ policy_arg $ json_out
      $ csv_out $ tick_budget $ deadline $ profile $ stats $ progress
      $ jsonl_out $ trace_out $ graph_out)

let query_t =
  let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR") in
  let run =
    Arg.(
      value
      & opt (some string) None
      & info [ "run" ] ~docv:"SAMPLE"
          ~doc:"Restrict to one run (its exact per-run reconstruction)")
  in
  let origins =
    Arg.(
      value & flag
      & info [ "origins" ]
          ~doc:
            "Rank every slice origin across every run by the number of runs \
             whose whodunit slices reached it")
  in
  let flows =
    Arg.(
      value
      & opt (some string) None
      & info [ "flows" ] ~docv:"SPEC"
          ~doc:
            "List flow nodes whose stable identity contains $(docv) \
             ($(b,SRC:sport->DST:dport), or any fragment of it)")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write a Graphviz DOT export ($(b,-) for stdout)")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a JSON export ($(b,-) for stdout)")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Query a campaign's graph-segment store: whodunit slices, \
          cross-run origin ranking, flow lookups, merged-graph export")
    Term.(
      const query_cmd $ dir_arg $ run $ origins $ flows $ dot_out $ json_out)

let profile_t =
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hotspot table (default 20)")
  in
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ] ~doc:"Also print the full indented span tree")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the span tree as JSON")
  in
  let jsonl_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl-out" ] ~docv:"FILE"
          ~doc:"Write profile spans and the metric snapshot as JSON Lines")
  in
  let run =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Analyze one sample under the span profiler; print hotspots, \
            instruction counters and the vm/dift replay split")
      Term.(
        const profile_run_cmd $ id_arg $ policy_arg $ top $ tree
        $ json_out $ jsonl_out)
  in
  Cmd.group
    (Cmd.info "profile"
       ~doc:"Whole-pipeline span profiling at phase and syscall \
             granularity (record, replay, kernel, DIFT tag insertion, \
             graph)")
    [ run ]

let policies_t =
  Cmd.v
    (Cmd.info "policies" ~doc:"List available DIFT propagation policies")
    Term.(const policies_cmd $ const ())

let () =
  let doc = "FAROS: provenance-based whole-system DIFT for in-memory injection attacks" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "faros" ~doc)
          [
            list_t;
            run_t;
            record_t;
            replay_t;
            events_t;
            malfind_t;
            compare_t;
            ps_t;
            stats_t;
            check_json_t;
            taint_t;
            strings_t;
            graph_t;
            query_t;
            disasm_t;
            campaign_t;
            profile_t;
            policies_t;
          ]))

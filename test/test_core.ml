(* Tests for the FAROS core: detector policy, report rendering, whitelist,
   and full end-to-end analyses of the paper's attack samples. *)

open Faros_dift

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* -- detector (pure policy) --------------------------------------------------- *)

let info ?(instr_prov = []) ?(read_prov = []) () : Engine.load_info =
  {
    li_asid = 1;
    li_pc = 0x1000;
    li_instr = Faros_vm.Isa.Load (4, 0, Faros_vm.Isa.abs 0);
    li_instr_prov = Provenance.of_list instr_prov;
    li_read_vaddr = 0x80100008;
    li_read_paddr = 0;
    li_read_prov = Provenance.of_list read_prov;
  }

let detector ?(config = Core.Config.default) () =
  Core.Detector.create ~config
    ~name_of_asid:(fun asid -> Printf.sprintf "proc%d.exe" asid)
    ()

let detect ?config ~instr_prov ~read_prov () =
  let d = detector ?config () in
  Core.Detector.on_load d ~tick:0 (info ~instr_prov ~read_prov ());
  Core.Report.flagged d.report

let detector_tests =
  [
    Alcotest.test_case "netflow + process over export flags" `Quick (fun () ->
        check_b "flag" true
          (detect
             ~instr_prov:[ Tag.Process 0; Tag.Netflow 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "file + process over export flags (hollowing)" `Quick
      (fun () ->
        check_b "flag" true
          (detect
             ~instr_prov:[ Tag.Process 1; Tag.Process 0; Tag.File 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "no export tag, no flag" `Quick (fun () ->
        check_b "clean" false
          (detect
             ~instr_prov:[ Tag.Process 0; Tag.Netflow 0 ]
             ~read_prov:[ Tag.File 0 ] ()));
    Alcotest.test_case "no source tag, no flag" `Quick (fun () ->
        check_b "clean" false
          (detect ~instr_prov:[ Tag.Process 0 ] ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "no process tag, no flag" `Quick (fun () ->
        check_b "clean" false
          (detect ~instr_prov:[ Tag.Netflow 0 ] ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "strict netflow config ignores file-borne" `Quick
      (fun () ->
        check_b "clean" false
          (detect ~config:Core.Config.strict_netflow
             ~instr_prov:[ Tag.Process 1; Tag.Process 0; Tag.File 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "min_process_tags=2 misses self-injection" `Quick
      (fun () ->
        let config = { Core.Config.default with min_process_tags = 2 } in
        check_b "missed" false
          (detect ~config
             ~instr_prov:[ Tag.Process 0; Tag.Netflow 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ());
        check_b "cross-process still caught" true
          (detect ~config
             ~instr_prov:[ Tag.Process 1; Tag.Process 0; Tag.Netflow 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "single-bit policy flags any tainted code" `Quick
      (fun () ->
        let config =
          Core.Config.with_policy Policy.bit_taint Core.Config.default
        in
        check_b "flag" true
          (detect ~config ~instr_prov:[ Tag.Netflow 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ());
        check_b "clean code clean" false
          (detect ~config ~instr_prov:[] ~read_prov:[ Tag.Export_table 0 ] ()));
    Alcotest.test_case "whitelisted process suppressed but recorded" `Quick
      (fun () ->
        let config =
          Core.Config.with_whitelist [ "proc1.exe" ] Core.Config.default
        in
        let d = detector ~config () in
        Core.Detector.on_load d ~tick:0
          (info
             ~instr_prov:[ Tag.Process 0; Tag.Netflow 0 ]
             ~read_prov:[ Tag.Export_table 0 ] ());
        check_b "not flagged" false (Core.Report.flagged d.report);
        check "suppressed count" 1 d.report.suppressed);
  ]

(* -- report -------------------------------------------------------------------- *)

let mk_flag ?(pc = 0x1000) ?(process = "a.exe") () : Core.Report.flag =
  {
    f_tick = 0;
    f_pc = pc;
    f_asid = 0;
    f_process = process;
    f_instr = Faros_vm.Isa.Nop;
    f_instr_prov = Provenance.of_list [ Tag.Process 0; Tag.Netflow 0 ];
    f_read_vaddr = 0;
    f_read_prov = Provenance.of_list [ Tag.Export_table 0 ];
    f_whitelisted = false;
  }

let report_tests =
  [
    Alcotest.test_case "flagged_sites dedupes by (process, pc)" `Quick (fun () ->
        let r = Core.Report.create () in
        Core.Report.add r (mk_flag ());
        Core.Report.add r (mk_flag ());
        Core.Report.add r (mk_flag ~pc:0x2000 ());
        Core.Report.add r (mk_flag ~process:"b.exe" ());
        check "flags" 4 (List.length (Core.Report.flags r));
        check "sites" 3 (List.length (Core.Report.flagged_sites r)));
    Alcotest.test_case "whitelisted flags not effective" `Quick (fun () ->
        let r = Core.Report.create () in
        Core.Report.add r { (mk_flag ()) with f_whitelisted = true };
        check_b "not flagged" false (Core.Report.flagged r);
        check "suppressed" 1 r.suppressed);
    Alcotest.test_case "provenance renders oldest-first like Table II" `Quick
      (fun () ->
        let store = Tag_store.create () in
        let nf =
          Tag_store.netflow store
            {
              src_ip = Faros_os.Types.Ip.of_string "169.254.26.161";
              src_port = 4444;
              dst_ip = Faros_os.Types.Ip.of_string "169.254.57.168";
              dst_port = 49162;
            }
        in
        let p1 = Tag_store.process store 7 in
        (* newest first in the list: process touched it after the netflow *)
        let prov = Provenance.of_list [ p1; nf ] in
        let rendered =
          Core.Report.render_provenance ~store
            ~name_of_asid:(fun _ -> "inject_client.exe")
            prov
        in
        check_s "rendered"
          "NetFlow: {src ip,port: 169.254.26.161:4444, dest ip.port: 169.254.57.168:49162} -> Process: inject_client.exe"
          rendered);
    Alcotest.test_case "file and export tags render" `Quick (fun () ->
        let store = Tag_store.create () in
        let f = Tag_store.file store ~name:"x.exe" ~version:2 in
        let rendered =
          Core.Report.render_provenance ~store
            ~name_of_asid:(fun _ -> "?")
            (Provenance.of_list [ Tag.Export_table 0; f ])
        in
        check_s "rendered" "File: x.exe (v2) -> Export-table" rendered);
    Alcotest.test_case "export tag renders its function name" `Quick (fun () ->
        let store = Tag_store.create () in
        let e = Tag_store.export store ~name:"GetProcAddress" in
        check_s "rendered" "Export-table: GetProcAddress"
          (Core.Report.render_provenance ~store
             ~name_of_asid:(fun _ -> "?")
             (Provenance.singleton e)));
  ]

(* -- end-to-end analyses -------------------------------------------------------- *)

let analyze id =
  match Faros_corpus.Registry.find id with
  | Some s -> Faros_corpus.Scenario.analyze s.scenario
  | None -> Alcotest.failf "unknown sample %s" id

let prov_processes (outcome : Core.Analysis.outcome) prov =
  List.filter_map
    (Tag_store.cr3_of outcome.faros.engine.store)
    (Provenance.process_indices prov)
  |> List.map (Core.Faros_plugin.name_of_asid outcome.faros.kernel)

let first_flag (outcome : Core.Analysis.outcome) =
  match Core.Report.flagged_sites outcome.report with
  | f :: _ -> f
  | [] -> Alcotest.fail "expected a flag"

let e2e_tests =
  [
    Alcotest.test_case "fig7: full provenance chain" `Slow (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let f = first_flag outcome in
        check_s "victim" "notepad.exe" f.f_process;
        check_b "netflow" true (Provenance.has_netflow f.f_instr_prov);
        Alcotest.(check (list string))
          "process chain (newest first)"
          [ "notepad.exe"; "inject_client.exe" ]
          (prov_processes outcome f.f_instr_prov);
        check_b "export read" true (Provenance.has_export f.f_read_prov));
    Alcotest.test_case "fig8: self-injection single process tag" `Slow (fun () ->
        let outcome = analyze "reverse_tcp_dns" in
        let f = first_flag outcome in
        Alcotest.(check (list string))
          "chain" [ "inject_client.exe" ]
          (prov_processes outcome f.f_instr_prov));
    Alcotest.test_case "fig10: hollowing is file-borne" `Slow (fun () ->
        let outcome = analyze "process_hollowing" in
        let f = first_flag outcome in
        check_s "victim" "svchost.exe" f.f_process;
        check_b "no netflow" false (Provenance.has_netflow f.f_instr_prov);
        check_b "file source" true (Provenance.has_file f.f_instr_prov);
        Alcotest.(check (list string))
          "chain"
          [ "svchost.exe"; "process_hollowing.exe" ]
          (prov_processes outcome f.f_instr_prov));
    Alcotest.test_case "hollowing payload actually keylogs" `Slow (fun () ->
        let outcome = analyze "process_hollowing" in
        let kernel = outcome.faros.kernel in
        check_b "log file written" true
          (Faros_os.Fs.exists kernel.fs "practicalmalware.log");
        check_s "captured the scripted keystrokes" "hunter2!password"
          (Faros_os.Fs.read_all kernel.fs "practicalmalware.log"));
    Alcotest.test_case "injected popup proves execution in the victim" `Slow
      (fun () ->
        (* record phase: check the popup event comes from the victim pid *)
        let scn = Faros_corpus.Attack_reflective.reflective_dll_inject () in
        let popups = ref [] in
        let kernel, _trace =
          Faros_replay.Recorder.record ~max_ticks:scn.max_ticks
            ~plugins:(fun kernel ->
              [
                Faros_replay.Plugin.make "popup-watch" ~on_os_event:(fun ev ->
                    match ev with
                    | Faros_os.Os_event.Popup { pid; text } ->
                      popups :=
                        (Faros_os.Kstate.proc_name kernel pid, text) :: !popups
                    | _ -> ());
              ])
            ~setup:(Faros_corpus.Scenario.setup_record scn)
            ~boot:(Faros_corpus.Scenario.boot scn)
            ()
        in
        ignore kernel;
        Alcotest.(check (list (pair string string)))
          "popup from notepad"
          [ ("notepad.exe", "injected!") ]
          !popups);
    Alcotest.test_case "all six attacks flag" `Slow (fun () ->
        List.iter
          (fun (s : Faros_corpus.Registry.sample) ->
            let outcome = Faros_corpus.Scenario.analyze s.scenario in
            check_b s.id true (Core.Report.flagged outcome.report))
          (Faros_corpus.Registry.attacks ()));
    Alcotest.test_case "replay under FAROS does not diverge" `Slow (fun () ->
        List.iter
          (fun (s : Faros_corpus.Registry.sample) ->
            let outcome = Faros_corpus.Scenario.analyze s.scenario in
            check_b (s.id ^ " no divergence") false outcome.replay.diverged)
          (Faros_corpus.Registry.attacks ()));
    Alcotest.test_case "benign and RAT samples stay clean (spot checks)" `Slow
      (fun () ->
        List.iter
          (fun id ->
            let outcome = analyze id in
            check_b id false (Core.Report.flagged outcome.report))
          [
            "pandora_v2.2_s0";
            "njrat_v0.7_s0";
            "quasar_v1.0_s0";
            "skype_s0";
            "teamviewer_s0";
            "remote_utility_s0";
            "snipping_tool_s0";
          ]);
    Alcotest.test_case "jit: native applet flags, bytecode applet clean" `Slow
      (fun () ->
        check_b "native" true
          (Core.Report.flagged (analyze "applet_ncradle").report);
        check_b "bytecode" false
          (Core.Report.flagged (analyze "applet_acceleration").report);
        check_b "ajax" false (Core.Report.flagged (analyze "ajax_gmail.com").report));
    Alcotest.test_case "whitelisting the JVM kills the applet FP" `Slow
      (fun () ->
        match Faros_corpus.Registry.find "applet_ncradle" with
        | None -> Alcotest.fail "missing sample"
        | Some s ->
          let config =
            Core.Config.with_whitelist Core.Whitelist.jit_default
              Core.Config.default
          in
          let outcome = Faros_corpus.Scenario.analyze ~config s.scenario in
          check_b "suppressed" false (Core.Report.flagged outcome.report);
          check_b "still visible to the analyst" true
            (outcome.report.suppressed > 0));
    Alcotest.test_case "laundering evasion: default misses, control-deps catch"
      `Slow (fun () ->
        match Faros_corpus.Registry.find "evasive_laundering_injection" with
        | None -> Alcotest.fail "missing sample"
        | Some s ->
          let default = Faros_corpus.Scenario.analyze s.scenario in
          check_b "default policy evaded" false (Core.Report.flagged default.report);
          let config =
            Core.Config.with_policy Policy.with_control_deps Core.Config.default
          in
          let hardened = Faros_corpus.Scenario.analyze ~config s.scenario in
          check_b "control-dep policy catches it" true
            (Core.Report.flagged hardened.report);
          (* the payload still ran in both cases *)
          check_b "attack executed" true
            (List.exists
               (fun (p : Faros_os.Process.t) ->
                 p.proc_name = "notepad.exe" && p.state = Faros_os.Process.Terminated)
               (Faros_os.Kstate.processes default.faros.kernel)));
    Alcotest.test_case "reflective DLL: flag fires inside the mapped image"
      `Slow (fun () ->
        (* the wire blob lands at heap_base; the bootstrap maps the DLL at
           rdll_image_base with its own memcpy.  Taint must survive that
           guest-level copy: the flag's pc lies in the *mapped* image. *)
        let outcome = analyze "reflective_rdll" in
        let f = first_flag outcome in
        check_s "victim" "notepad.exe" f.f_process;
        check_b "pc inside the mapped image" true
          (f.f_pc >= Faros_corpus.Payloads.rdll_image_base
          && f.f_pc
             < Faros_corpus.Payloads.rdll_image_base + Faros_vm.Phys_mem.page_size);
        check_b "netflow survived the in-guest memcpy" true
          (Provenance.has_netflow f.f_instr_prov));
    Alcotest.test_case "multi-target injection: both victims reported" `Slow
      (fun () ->
        let outcome = Faros_corpus.Scenario.analyze (Faros_corpus.Extras.multi_target ()) in
        let victims =
          Core.Report.flagged_sites outcome.report
          |> List.map (fun (f : Core.Report.flag) -> f.f_process)
          |> List.sort_uniq compare
        in
        check_b "notepad flagged" true (List.mem "notepad.exe" victims);
        check_b "firefox flagged" true (List.mem "firefox.exe" victims));
    Alcotest.test_case
      "file-borne rule tradeoff: benign export walker flags by default, not under strict netflow"
      `Slow (fun () ->
        let scn = Faros_corpus.Extras.export_walker () in
        let default = Faros_corpus.Scenario.analyze scn in
        check_b "default flags it (cost of catching hollowing)" true
          (Core.Report.flagged default.report);
        let strict =
          Faros_corpus.Scenario.analyze ~config:Core.Config.strict_netflow scn
        in
        check_b "strict netflow stays quiet" false
          (Core.Report.flagged strict.report));
    Alcotest.test_case "flag carries the export-table read address" `Slow
      (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let f = first_flag outcome in
        check_b "in export dir" true
          (f.f_read_vaddr >= Faros_os.Export_table.export_dir_vaddr
          && f.f_read_vaddr
             < Faros_os.Export_table.export_dir_vaddr
               + (Faros_os.Export_table.export_dir_pages
                 * Faros_vm.Phys_mem.page_size)));
  ]


(* -- configuration behaviour end to end ----------------------------------------- *)

let config_tests =
  [
    Alcotest.test_case "strict netflow config misses file-borne hollowing" `Slow
      (fun () ->
        match Faros_corpus.Registry.find "process_hollowing" with
        | None -> Alcotest.fail "missing"
        | Some s ->
          let outcome =
            Faros_corpus.Scenario.analyze ~config:Core.Config.strict_netflow
              s.scenario
          in
          check_b "missed under strict netflow" false
            (Core.Report.flagged outcome.report));
    Alcotest.test_case "bit-taint policy still catches network-borne attacks"
      `Slow (fun () ->
        match Faros_corpus.Registry.find "reflective_dll_inject" with
        | None -> Alcotest.fail "missing"
        | Some s ->
          let config =
            Core.Config.with_policy Policy.bit_taint Core.Config.default
          in
          let outcome = Faros_corpus.Scenario.analyze ~config s.scenario in
          check_b "flagged" true (Core.Report.flagged outcome.report));
    Alcotest.test_case "bit-taint policy misses file-borne hollowing" `Slow
      (fun () ->
        match Faros_corpus.Registry.find "process_hollowing" with
        | None -> Alcotest.fail "missing"
        | Some s ->
          let config =
            Core.Config.with_policy Policy.bit_taint Core.Config.default
          in
          let outcome = Faros_corpus.Scenario.analyze ~config s.scenario in
          check_b "missed" false (Core.Report.flagged outcome.report));
    Alcotest.test_case "Analysis.flagged mirrors the report" `Slow (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        check_b "true" true (Core.Analysis.flagged outcome);
        let clean = analyze "snipping_tool_s0" in
        check_b "false" false (Core.Analysis.flagged clean));
    Alcotest.test_case "detector counts every load it checks" `Slow (fun () ->
        let outcome = analyze "reverse_tcp_dns" in
        check_b "loads checked" true (Core.Detector.loads_checked outcome.faros.detector > 0));
    Alcotest.test_case "report table output has the Table II header" `Slow
      (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let text = Fmt.str "%a" (fun ppf () -> Core.Faros_plugin.pp_report ppf outcome.faros) () in
        check_b "header" true
          (String.length text > 0
          && String.sub text 0 14 = "Memory Address"));
    Alcotest.test_case "unknown tag indices render with a fallback" `Quick
      (fun () ->
        let store = Tag_store.create () in
        check_s "netflow fallback" "NetFlow: #9"
          (Core.Report.describe_tag ~store ~name_of_asid:(fun _ -> "?")
             (Tag.Netflow 9));
        check_s "export fallback" "Export-table"
          (Core.Report.describe_tag ~store ~name_of_asid:(fun _ -> "?")
             (Tag.Export_table 9)));
    Alcotest.test_case "export tag in a flag names the resolved function" `Slow
      (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let f = first_flag outcome in
        let rendered =
          Core.Report.render_provenance ~store:outcome.faros.engine.store
            ~name_of_asid:(Core.Faros_plugin.name_of_asid outcome.faros.kernel)
            f.f_read_prov
        in
        check_b "named" true
          (String.length rendered >= 13
          && String.sub rendered 0 13 = "Export-table:"));
  ]


(* -- provenance queries and JSON export ------------------------------------------ *)

let query_tests =
  [
    Alcotest.test_case "taint map locates the injected payload region" `Slow
      (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let regions = Core.Prov_query.tainted_regions outcome.faros in
        check_b "payload region in the victim" true
          (List.exists
             (fun (r : Core.Prov_query.region_taint) ->
               r.rt_process = "notepad.exe"
               && r.rt_vaddr = Faros_os.Process.heap_base
               && List.mem Faros_dift.Tag.Ty_netflow r.rt_types)
             regions));
    Alcotest.test_case "summary attributes netflow taint to both processes"
      `Slow (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let summary = Core.Prov_query.summary_by_process outcome.faros in
        List.iter
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) summary with
            | Some (_, total, netflow) ->
              check_b (name ^ " tainted") true (total > 0);
              check_b (name ^ " netflow") true (netflow > 0)
            | None -> Alcotest.failf "no summary row for %s" name)
          [ "notepad.exe"; "inject_client.exe" ]);
    Alcotest.test_case "clean sample has no netflow in executable regions"
      `Slow (fun () ->
        let outcome = analyze "snipping_tool_s0" in
        let summary = Core.Prov_query.summary_by_process outcome.faros in
        List.iter
          (fun (_, _, netflow) -> check "no netflow" 0 netflow)
          summary);
    Alcotest.test_case "tainted regions stop below the kernel region" `Quick
      (fun () ->
        (* the stack ends exactly where the shared kernel stubs begin, so
           one mapped range covers both *)
        let k = Faros_os.Kernel.create () in
        let faros = Core.Faros_plugin.create k in
        let spawn name =
          Faros_os.Kernel.install_image k ~path:name
            (Faros_os.Pe.of_program ~name ~base:Faros_os.Process.image_base
               [ Faros_vm.Asm.I Faros_vm.Isa.Halt ]);
          Option.get (Faros_os.Kstate.proc k (Faros_os.Kernel.spawn k name))
        in
        let p = spawn "t.exe" in
        ignore (spawn "u.exe");
        let kernel_base = Faros_os.Export_table.kernel_base in
        List.iter
          (fun vaddr ->
            Shadow.set_mem faros.engine.shadow
              (Faros_vm.Mmu.translate k.machine.mmu ~asid:(Faros_os.Process.asid p)
                 vaddr)
              (Provenance.singleton (Tag.Netflow 0)))
          [ kernel_base - 1; kernel_base ];
        match Core.Prov_query.tainted_regions faros with
        | [ r ] ->
          check_s "process" "t.exe" r.rt_process;
          check "stack top" (kernel_base - 1) r.rt_vaddr;
          check "one byte" 1 r.rt_len
        | regions ->
          Alcotest.failf "expected the stack-top byte alone, got %s"
            (String.concat "; "
               (List.map
                  (fun (r : Core.Prov_query.region_taint) ->
                    Printf.sprintf "%s 0x%08X +%d" r.rt_process r.rt_vaddr r.rt_len)
                  regions)));
    Alcotest.test_case "tainted strings locate the payload's artifacts" `Slow
      (fun () ->
        let outcome = analyze "reflective_dll_inject" in
        let found = Core.Prov_query.strings outcome.faros in
        check_b "attacker string found in the victim" true
          (List.exists
             (fun (t : Core.Prov_query.tainted_string) ->
               t.ts_process = "notepad.exe"
               && String.length t.ts_text >= 8
               && Faros_dift.Provenance.has_netflow t.ts_prov)
             found);
        (* a clean sample yields no netflow-tainted executable strings in
           the snipping tool (no network at all) *)
        let clean = analyze "snipping_tool_s0" in
        check "clean" 0 (List.length (Core.Prov_query.strings clean.faros)));
    Alcotest.test_case "json export is well-formed and complete" `Slow
      (fun () ->
        let outcome = analyze "reverse_tcp_dns" in
        let json =
          Faros_obs.Json.to_string
            (Core.Report.to_json ~store:outcome.faros.engine.store
               ~name_of_asid:(Core.Faros_plugin.name_of_asid outcome.faros.kernel)
               outcome.report)
        in
        check_b "flagged field" true
          (String.length json > 20 && String.sub json 0 16 = {|{"flagged":true,|});
        (* every flag became an object *)
        let count_substr needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i acc =
            if i + n > h then acc
            else if String.sub hay i n = needle then go (i + 1) (acc + 1)
            else go (i + 1) acc
          in
          go 0 0
        in
        check "one object per flag"
          (List.length (Core.Report.flags outcome.report))
          (count_substr {|"tick":|} json);
        (* balanced braces: cheap well-formedness proxy *)
        check "balanced braces"
          (count_substr "{" json)
          (count_substr "}" json));
    Alcotest.test_case "json escaping handles quotes and control chars" `Quick
      (fun () ->
        let store = Tag_store.create () in
        let r = Core.Report.create () in
        Core.Report.add r
          {
            (mk_flag ~process:{|we"ird|} ()) with
            f_instr_prov = Provenance.empty;
            f_read_prov = Provenance.empty;
          };
        let json =
          Faros_obs.Json.to_string
            (Core.Report.to_json ~store ~name_of_asid:(fun _ -> "?") r)
        in
        check_b "escaped quote" true
          (let needle = {|we\"ird|} in
           let n = String.length needle and h = String.length json in
           let rec go i =
             if i + n > h then false
             else String.sub json i n = needle || go (i + 1)
           in
           go 0));
  ]

let () =
  Alcotest.run "faros_core"
    [
      ("detector", detector_tests);
      ("report", report_tests);
      ("end-to-end", e2e_tests);
      ("config", config_tests);
      ("queries", query_tests);
    ]

(* Tests for record/replay: trace serialization, deterministic replay of
   real scenarios, divergence detection, and the plugin API. *)

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let flow a b =
  { Faros_os.Types.src_ip = a; src_port = 10; dst_ip = b; dst_port = 20 }

(* -- trace ------------------------------------------------------------------ *)

(* A small pool of flows so generated traces interleave chunks of several
   concurrent connections, and payload sizes biased toward the edges:
   zero-length chunks and max-length (64 KiB) payloads both round-trip. *)
let max_payload = 65_536

let arb_event =
  QCheck.Gen.(
    let* tag = bool in
    if tag then
      let* k = int_range 0 255 in
      return (Faros_replay.Trace.Key k)
    else
      let* a = int_range 1 4 in
      let* b = int_range 1 4 in
      let* size =
        frequency
          [
            (3, int_range 0 64);
            (1, return 0);
            (1, return max_payload);
          ]
      in
      let* data = string_size (return size) in
      return (Faros_replay.Trace.Packet (flow a b, data)))

let arb_trace =
  QCheck.Gen.(
    let* events = list_size (int_range 0 30) arb_event in
    let* final_tick = int_range 0 1_000_000 in
    let* syscall_count = int_range 0 10_000 in
    return { Faros_replay.Trace.events; final_tick; syscall_count })

let trace_roundtrip =
  QCheck.Test.make ~count:200 ~name:"trace serialize/parse roundtrip"
    (QCheck.make arb_trace) (fun t ->
      Faros_replay.Trace.parse (Faros_replay.Trace.serialize t) = t)

let trace_tests =
  [
    Alcotest.test_case "rx_chunks filters by flow, keeps order" `Quick (fun () ->
        let t =
          {
            Faros_replay.Trace.events =
              [
                Packet (flow 1 2, "a");
                Key 65;
                Packet (flow 3 4, "x");
                Packet (flow 1 2, "b");
              ];
            final_tick = 0;
            syscall_count = 0;
          }
        in
        Alcotest.(check (list string))
          "chunks" [ "a"; "b" ]
          (Faros_replay.Trace.rx_chunks t (flow 1 2));
        Alcotest.(check (list int)) "keys" [ 65 ] (Faros_replay.Trace.keys t);
        check "packets" 3 (Faros_replay.Trace.packet_count t);
        check "bytes" 3 (Faros_replay.Trace.total_rx_bytes t));
    Alcotest.test_case "bad trace rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Faros_replay.Trace.parse s with
            | exception Faros_replay.Trace.Bad_trace _ -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ ""; "XXXX"; "FTR1\x01" ]);
    Alcotest.test_case "binary payloads survive" `Quick (fun () ->
        let data = String.init 256 Char.chr in
        let t =
          {
            Faros_replay.Trace.events = [ Packet (flow 1 2, data) ];
            final_tick = 1;
            syscall_count = 1;
          }
        in
        let t' = Faros_replay.Trace.parse (Faros_replay.Trace.serialize t) in
        check_b "equal" true (t = t'));
    Alcotest.test_case "edge cases round-trip" `Quick (fun () ->
        let roundtrip t =
          Faros_replay.Trace.parse (Faros_replay.Trace.serialize t)
        in
        (* the empty trace *)
        check_b "empty" true
          (roundtrip Faros_replay.Trace.empty = Faros_replay.Trace.empty);
        (* interleaved flows with zero-length and max-length chunks *)
        let t =
          {
            Faros_replay.Trace.events =
              [
                Packet (flow 1 2, "");
                Packet (flow 3 4, String.make max_payload 'x');
                Packet (flow 1 2, "tail");
                Key 13;
                Packet (flow 3 4, "");
              ];
            final_tick = 42;
            syscall_count = 7;
          }
        in
        let t' = roundtrip t in
        check_b "interleaved equal" true (t = t');
        Alcotest.(check (list string))
          "flow 1-2 chunks, order kept" [ ""; "tail" ]
          (Faros_replay.Trace.rx_chunks t' (flow 1 2));
        check "max payload survives" max_payload
          (Faros_replay.Trace.total_rx_bytes t' - 4));
    QCheck_alcotest.to_alcotest trace_roundtrip;
  ]

(* -- record / replay ---------------------------------------------------------- *)

let scenario () = Faros_corpus.Attack_reflective.reflective_dll_inject ()

let replay_tests =
  [
    Alcotest.test_case "replay is tick-exact" `Quick (fun () ->
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let r = Faros_corpus.Scenario.replay_plain scn trace in
        check_b "no divergence" false r.diverged;
        check "ticks" trace.final_tick r.replay_ticks;
        check "syscalls" trace.syscall_count r.replay_syscalls);
    Alcotest.test_case "replay is repeatable" `Quick (fun () ->
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let r1 = Faros_corpus.Scenario.replay_plain scn trace in
        let r2 = Faros_corpus.Scenario.replay_plain scn trace in
        check "same ticks" r1.replay_ticks r2.replay_ticks);
    Alcotest.test_case "recording twice is deterministic" `Quick (fun () ->
        let _, t1 = Faros_corpus.Scenario.record (scenario ()) in
        let _, t2 = Faros_corpus.Scenario.record (scenario ()) in
        check "ticks" t1.final_tick t2.final_tick;
        check_b "same events" true (t1.events = t2.events));
    Alcotest.test_case "tampered trace diverges" `Quick (fun () ->
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        (* corrupt the payload: the victim executes different bytes *)
        let events =
          List.map
            (fun ev ->
              match ev with
              | Faros_replay.Trace.Packet (f, data) when String.length data > 8 ->
                Faros_replay.Trace.Packet
                  (f, String.sub data 0 (String.length data / 2))
              | ev -> ev)
            trace.Faros_replay.Trace.events
        in
        let r = Faros_corpus.Scenario.replay_plain scn { trace with events } in
        check_b "diverged" true r.diverged);
    Alcotest.test_case "keystrokes are recorded and replayed" `Quick (fun () ->
        let scn = Faros_corpus.Attack_hollowing.scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        check_b "keys recorded" true (Faros_replay.Trace.keys trace <> []);
        let r = Faros_corpus.Scenario.replay_plain scn trace in
        check_b "no divergence" false r.diverged);
    Alcotest.test_case "plugin exec hook sees every instruction" `Quick
      (fun () ->
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let count = ref 0 in
        let r =
          Faros_corpus.Scenario.replay_with scn
            ~plugins:(fun _kernel ->
              [ Faros_replay.Plugin.make "counter" ~on_exec:(fun _ _ -> incr count) ])
            trace
        in
        check "every instruction" r.replay_ticks !count);
    Alcotest.test_case "plugin os hook sees kernel events" `Quick (fun () ->
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let events = ref 0 in
        ignore
          (Faros_corpus.Scenario.replay_with scn
             ~plugins:(fun _ ->
               [
                 Faros_replay.Plugin.make "events" ~on_os_event:(fun _ -> incr events);
               ])
             trace);
        check_b "saw events" true (!events > 0));
    Alcotest.test_case "analysis plugin does not perturb the guest" `Quick
      (fun () ->
        (* the whole point of replay-based analysis: FAROS on or off, the
           guest executes identically *)
        let scn = scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let plain = Faros_corpus.Scenario.replay_plain scn trace in
        let faros = ref None in
        let with_faros =
          Faros_corpus.Scenario.replay_with scn
            ~plugins:(fun kernel ->
              let f = Core.Faros_plugin.create kernel in
              faros := Some f;
              [ Core.Faros_plugin.plugin f ])
            trace
        in
        check "same ticks" plain.replay_ticks with_faros.replay_ticks;
        check_b "analysis ran" true
          (match !faros with
          | Some f -> Faros_dift.Engine.instrs_processed f.engine = with_faros.replay_ticks
          | None -> false));
  ]


(* -- more replay properties ------------------------------------------------------ *)

let more_replay_tests =
  [
    Alcotest.test_case "loopback traffic stays out of the trace" `Quick
      (fun () ->
        let scn = Faros_corpus.Extras.ipc_pair () in
        let _, trace = Faros_corpus.Scenario.record scn in
        check "no packets recorded" 0 (Faros_replay.Trace.packet_count trace);
        let r = Faros_corpus.Scenario.replay_plain scn trace in
        check_b "replays exactly" false r.diverged);
    Alcotest.test_case "plugins can watch the recording run" `Quick (fun () ->
        let scn = Faros_corpus.Attack_reflective.reflective_dll_inject () in
        let seen = ref 0 in
        let _, trace =
          Faros_replay.Recorder.record ~max_ticks:scn.max_ticks
            ~plugins:(fun _ ->
              [ Faros_replay.Plugin.make "c" ~on_exec:(fun _ _ -> incr seen) ])
            ~setup:(Faros_corpus.Scenario.setup_record scn)
            ~boot:(Faros_corpus.Scenario.boot scn)
            ()
        in
        check "hooked every instruction" trace.final_tick !seen);
    Alcotest.test_case "trace file written and read back through disk format"
      `Quick (fun () ->
        let scn = Faros_corpus.Attack_hollowing.scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let bytes = Faros_replay.Trace.serialize trace in
        let trace2 = Faros_replay.Trace.parse bytes in
        let r = Faros_corpus.Scenario.replay_plain scn trace2 in
        check_b "replays from parsed trace" false r.diverged);
    Alcotest.test_case "empty trace diverges for a network-dependent sample"
      `Quick (fun () ->
        let scn = Faros_corpus.Attack_reflective.reflective_dll_inject () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let r =
          Faros_corpus.Scenario.replay_plain scn
            { Faros_replay.Trace.empty with
              final_tick = trace.final_tick;
              syscall_count = trace.syscall_count;
            }
        in
        check_b "diverged" true r.diverged);
    Alcotest.test_case "two plugins both receive events, in order" `Quick
      (fun () ->
        let scn = Faros_corpus.Attack_hollowing.scenario () in
        let _, trace = Faros_corpus.Scenario.record scn in
        let order = ref [] in
        ignore
          (Faros_corpus.Scenario.replay_with scn
             ~plugins:(fun _ ->
               [
                 Faros_replay.Plugin.make "a" ~on_os_event:(fun _ ->
                     order := `A :: !order);
                 Faros_replay.Plugin.make "b" ~on_os_event:(fun _ ->
                     order := `B :: !order);
               ])
             trace);
        match List.rev !order with
        | `A :: `B :: _ -> ()
        | _ -> Alcotest.fail "expected a then b");
    Alcotest.test_case "analyze_trace of analyze's trace reproduces it" `Slow
      (fun () ->
        (* Each run gets a fresh provenance store: interned counts are per
           store, and a shared one would carry the first run's lists. *)
        let run f =
          Faros_dift.Provenance.set_store (Faros_dift.Provenance.create_store ());
          let telemetry = Core.Telemetry.create () in
          let (o : Core.Analysis.outcome) = f telemetry in
          let report =
            Faros_obs.Json.to_string
              (Core.Report.to_json ~store:o.faros.engine.store
                 ~name_of_asid:(Core.Faros_plugin.name_of_asid o.faros.kernel)
                 o.report)
          in
          (o, report, Faros_obs.Series.to_csv telemetry)
        in
        List.iter
          (fun id ->
            let scn =
              match Faros_corpus.Registry.find id with
              | Some s -> s.scenario
              | None -> Alcotest.failf "unknown sample %s" id
            in
            let a, a_report, a_csv =
              run (fun telemetry -> Faros_corpus.Scenario.analyze ~telemetry scn)
            in
            let b, b_report, b_csv =
              run (fun telemetry ->
                  Faros_corpus.Scenario.analyze_trace ~telemetry scn a.trace)
            in
            Alcotest.(check string) (id ^ " report") a_report b_report;
            check (id ^ " replay ticks") a.replay.replay_ticks b.replay.replay_ticks;
            check (id ^ " replay syscalls") a.replay.replay_syscalls
              b.replay.replay_syscalls;
            check_b (id ^ " analyze not diverged") false a.replay.diverged;
            check_b (id ^ " analyze_trace not diverged") false b.replay.diverged;
            Alcotest.(check string) (id ^ " telemetry") a_csv b_csv)
          [
            "reflective_dll_inject"; "process_hollowing"; "darkcomet_injection";
            "applet_ncradle"; "skype_s0"; "netd_inject_under_server";
          ]);
  ]

let () =
  Alcotest.run "faros_replay"
    [
      ("trace", trace_tests);
      ("record-replay", replay_tests);
      ("replay-more", more_replay_tests);
    ]

(* Tests for record/replay: trace serialization, deterministic replay of
   real scenarios, divergence detection, and the plugin API. *)

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let flow a b =
  { Faros_os.Types.src_ip = a; src_port = 10; dst_ip = b; dst_port = 20 }

(* -- trace ------------------------------------------------------------------ *)

(* A small pool of flows so generated traces interleave answers on several
   concurrent connections, answers of 0-3 chunks, and chunk sizes biased
   toward the edges: zero-length and max-length (64 KiB) chunks both
   round-trip. *)
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
      let size =
        frequency
          [
            (3, int_range 0 64);
            (1, return 0);
            (1, return max_payload);
          ]
      in
      let* chunks = list_size (int_range 0 3) (string_size size) in
      return (Faros_replay.Trace.Answer (flow a b, chunks)))

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

(* -- trace decoder totality ------------------------------------------------- *)

(* Seeds recorded from samples that cover every event kind: an answer on a
   connect (reflective_dll_inject), an answer on a send (applet_ncradle),
   inbound events (netd_inject_under_server) and keys (process_hollowing). *)
let fuzz_seeds =
  lazy
    (List.map
       (fun id ->
         let scn = (Option.get (Faros_corpus.Registry.find id)).scenario in
         let _, trace = Faros_corpus.Scenario.record scn in
         (scn, trace, Faros_replay.Trace.serialize trace))
       [
         "reflective_dll_inject"; "applet_ncradle"; "netd_inject_under_server";
         "process_hollowing";
       ])

(* Offsets of the u32 fields in [serialize t], and the length they imply:
   the header's three, then each event's after its tag byte — flow
   fields, counts, ticks, keys and string lengths. *)
let u32_fields (t : Faros_replay.Trace.t) =
  let flow pos = [ pos; pos + 4; pos + 8; pos + 12 ] in
  let str (fields, pos) data = (pos :: fields, pos + 4 + String.length data) in
  List.fold_left
    (fun (fields, pos) (ev : Faros_replay.Trace.event) ->
      let pos = pos + 1 in
      match ev with
      | Key _ -> (pos :: fields, pos + 4)
      | Answer (_, chunks) ->
        List.fold_left str (flow pos @ ((pos + 16) :: fields), pos + 20) chunks
      | Inbound (_, (Inb_connect _ | Inb_fin _)) ->
        (flow (pos + 4) @ (pos :: fields), pos + 20)
      | Inbound (_, Inb_data (_, data)) ->
        str (flow (pos + 4) @ (pos :: fields), pos + 20) data)
    ([ 4; 8; 12 ], 16) t.events

(* A seed truncated, with 1-4 bytes overwritten, or with one u32 field set
   to 0xFFFFFFFF. *)
let arb_mutant =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 3 in
      let _, trace, bytes = List.nth (Lazy.force fuzz_seeds) seed in
      let len = String.length bytes in
      let edit f =
        let b = Bytes.of_string bytes in
        f b;
        Bytes.to_string b
      in
      let* mutant =
        oneof
          [
            map (String.sub bytes 0) (int_bound (len - 1));
            (let* n = int_range 1 4 in
             let* edits = list_repeat n (pair (int_bound (len - 1)) char) in
             return (edit (fun b -> List.iter (fun (i, c) -> Bytes.set b i c) edits)));
            map
              (fun i -> edit (fun b -> Bytes.set_int32_le b i 0xFFFFFFFFl))
              (oneofl (fst (u32_fields trace)));
          ]
      in
      return (seed, mutant))
  in
  QCheck.make gen ~print:(fun (seed, m) -> Printf.sprintf "seed %d: %S" seed m)

(* A mutant either fails to parse with [Bad_trace] or replays to a result,
   diverged or not; any other exception fails the property. *)
let trace_mutants =
  QCheck.Test.make ~count:1200 ~name:"a mutated trace parses and replays, or is Bad_trace"
    arb_mutant (fun (seed, mutant) ->
      let scn, _, _ = List.nth (Lazy.force fuzz_seeds) seed in
      match Faros_replay.Trace.parse mutant with
      | exception Faros_replay.Trace.Bad_trace _ -> true
      | trace ->
        ignore (Faros_corpus.Scenario.replay_plain scn trace);
        true)

let trace_tests =
  [
    Alcotest.test_case "packet_count counts answered chunks" `Quick (fun () ->
        let t =
          {
            Faros_replay.Trace.events =
              [
                Answer (flow 1 2, [ "a" ]);
                Key 65;
                Answer (flow 3 4, [ "x" ]);
                Answer (flow 1 2, []);
                Answer (flow 1 2, [ "b" ]);
              ];
            final_tick = 0;
            syscall_count = 0;
          }
        in
        Alcotest.(check (list int)) "keys" [ 65 ] (Faros_replay.Trace.keys t);
        check "packets" 3 (Faros_replay.Trace.packet_count t);
        check "bytes" 3 (Faros_replay.Trace.total_rx_bytes t);
        check "one actor per endpoint" 2 (List.length (Faros_replay.Trace.actors t)));
    Alcotest.test_case "bad trace rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Faros_replay.Trace.parse s with
            | exception Faros_replay.Trace.Bad_trace _ -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ ""; "XXXX"; "FTR3\x01" ]);
    Alcotest.test_case "binary payloads survive" `Quick (fun () ->
        let data = String.init 256 Char.chr in
        let t =
          {
            Faros_replay.Trace.events = [ Answer (flow 1 2, [ data ]) ];
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
        (* interleaved flows with empty answers, zero-length and max-length
           chunks *)
        let t =
          {
            Faros_replay.Trace.events =
              [
                Answer (flow 1 2, []);
                Answer (flow 3 4, [ String.make max_payload 'x'; "" ]);
                Answer (flow 1 2, [ "tail" ]);
                Key 13;
                Answer (flow 3 4, [ "" ]);
              ];
            final_tick = 42;
            syscall_count = 7;
          }
        in
        let t' = roundtrip t in
        check_b "interleaved equal" true (t = t');
        check "every chunk counted" 4 (Faros_replay.Trace.packet_count t');
        check "max payload survives" max_payload
          (Faros_replay.Trace.total_rx_bytes t' - 4));
    QCheck_alcotest.to_alcotest trace_roundtrip;
    Alcotest.test_case "u32 field offsets follow the encoding" `Quick (fun () ->
        List.iter
          (fun (_, trace, bytes) ->
            check "encoded length" (String.length bytes) (snd (u32_fields trace)))
          (Lazy.force fuzz_seeds));
    QCheck_alcotest.to_alcotest trace_mutants;
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
              | Faros_replay.Trace.Answer (f, chunks) ->
                Faros_replay.Trace.Answer
                  ( f,
                    List.map
                      (fun data ->
                        if String.length data > 8 then
                          String.sub data 0 (String.length data / 2)
                        else data)
                      chunks )
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

module Progs = Faros_corpus.Progs
module Isa = Faros_vm.Isa

(* Thirty syscalls a probe guest makes only when replay shows it something
   recording did not, so a replay that does shows in both counts. *)
let divergent_branch =
  List.concat
    [
      [ Progs.movi Isa.r6 30; Progs.lbl "branch" ];
      Progs.syscall Faros_os.Syscall.nt_get_tick_count;
      [
        Progs.i (Isa.Sub_ri (Isa.r6, 1));
        Progs.i (Isa.Cmp_ri (Isa.r6, 0));
        Faros_vm.Asm.Jnz_l "branch";
      ];
    ]

let probe_guest ?actors name items =
  let path = name ^ ".exe" in
  let image =
    Faros_os.Pe.of_program ~name:path ~base:Faros_os.Process.image_base
      (Progs.lbl "start" :: items)
  in
  Faros_corpus.Scenario.make ?actors ~images:[ (path, image) ] ~boot:[ path ] name

(* Record the guest, take its trace through the file format, and replay it:
   the replay must run exactly as the recording did. *)
let probe_replays_as_recorded ~ticks ~syscalls scn =
  let _, trace = Faros_corpus.Scenario.record scn in
  check "recorded ticks" ticks trace.final_tick;
  check "recorded syscalls" syscalls trace.syscall_count;
  let trace = Faros_replay.Trace.(parse (serialize trace)) in
  let r = Faros_corpus.Scenario.replay_plain scn trace in
  check_b "not diverged" false r.diverged;
  check "replayed ticks" ticks r.replay_ticks;
  check "replayed syscalls" syscalls r.replay_syscalls

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
    Alcotest.test_case "a reply to a send arrives after the send" `Quick (fun () ->
        (* The actor answers only sends, and the guest polls before its
           first one: the poll must read nothing at replay too. *)
        let actor =
          {
            Faros_os.Netstack.actor_name = "pong";
            actor_ip = Faros_os.Types.Ip.of_string "10.0.0.2";
            actor_port = 80;
            on_connect = (fun _ -> []);
            on_data = (fun _ _ -> [ "pong" ]);
          }
        in
        probe_replays_as_recorded ~ticks:24 ~syscalls:5
          (probe_guest ~actors:[ actor ] "poller"
             (List.concat
                [
                  Progs.connect_raw ~ip:"10.0.0.2" ~port:80;
                  [ Progs.movr Isa.r1 Isa.r7 ];
                  Progs.syscall Faros_os.Syscall.sys_poll;
                  [ Progs.i (Isa.Cmp_ri (Isa.r0, 1)); Faros_vm.Asm.Jnz_l "talk" ];
                  divergent_branch;
                  [ Progs.lbl "talk"; Progs.movr Isa.r1 Isa.r7 ];
                  [ Progs.lea_label Isa.r2 "ping"; Progs.movi Isa.r3 4 ];
                  Progs.syscall Faros_os.Syscall.sys_send;
                  [ Progs.movr Isa.r1 Isa.r7; Progs.lea_label Isa.r2 "buf" ];
                  [ Progs.movi Isa.r3 16 ];
                  Progs.syscall Faros_os.Syscall.sys_recv;
                  [ Progs.halt ];
                  Progs.cstring "ping" "ping";
                  Progs.buffer "buf" 16;
                ])));
    Alcotest.test_case "a refused connect stays refused" `Quick (fun () ->
        probe_replays_as_recorded ~ticks:11 ~syscalls:2
          (probe_guest "unserved"
             (List.concat
                [
                  Progs.connect_raw ~ip:"10.9.9.9" ~port:99;
                  [ Progs.i (Isa.Cmp_ri (Isa.r0, 0)); Faros_vm.Asm.Jnz_l "done" ];
                  divergent_branch;
                  [ Progs.lbl "done"; Progs.halt ];
                ])));
  ]

let () =
  Alcotest.run "faros_replay"
    [
      ("trace", trace_tests);
      ("record-replay", replay_tests);
      ("replay-more", more_replay_tests);
    ]

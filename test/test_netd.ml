(* Server-daemon subsystem tests: the inbound netstack layer (pump,
   EOF/readiness, the bind/close port-release regression), the
   deterministic traffic generator, the FTR2 trace format, and the
   inject-through-server scenarios — where a whodunit slice must pin the
   one guilty flow among hundreds of benign ones. *)

open Faros_netd

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let ip = Faros_os.Types.Ip.of_string
let guest_ip = Faros_corpus.Servers.guest_ip

let flow ~src_port ~dst_port =
  {
    Faros_os.Types.src_ip = ip "169.254.80.14";
    src_port;
    dst_ip = guest_ip;
    dst_port;
  }

let stack () = Faros_os.Netstack.create ~local_ip:guest_ip

(* -- netstack: inbound pump, EOF, readiness, close ------------------------ *)

let netstack_tests =
  let open Faros_os.Netstack in
  [
    Alcotest.test_case "close releases the bound port for rebinding" `Quick
      (fun () ->
        (* The regression this PR fixes: a closed listener used to leave
           its port claimed forever, so a daemon could never restart. *)
        let t = stack () in
        let s1 = socket t in
        bind t s1 ~port:8080;
        listen t s1;
        close t s1;
        let s2 = socket t in
        bind t s2 ~port:8080;
        listen t s2;
        let f = flow ~src_port:40000 ~dst_port:8080 in
        schedule_inbound t [ (0, Inb_connect f) ];
        pump t ~tick:0;
        check_b "rebound listener accepts" true (accept t s2 <> None));
    Alcotest.test_case "double bind raises Bad_socket" `Quick (fun () ->
        let t = stack () in
        let s1 = socket t in
        bind t s1 ~port:8080;
        let s2 = socket t in
        Alcotest.check_raises "port taken" (Bad_socket s2) (fun () ->
            bind t s2 ~port:8080));
    Alcotest.test_case "closing a listener drains the un-accepted backlog"
      `Quick (fun () ->
        let t = stack () in
        let delivered = ref 0 in
        set_inbound_sink t (fun _ _ -> incr delivered);
        let s1 = socket t in
        bind t s1 ~port:8080;
        listen t s1;
        let f = flow ~src_port:40000 ~dst_port:8080 in
        schedule_inbound t [ (0, Inb_connect f) ];
        pump t ~tick:0;
        check "connect delivered" 1 !delivered;
        close t s1;
        (* the queued connection died with the listener: a fresh listener
           on the same port starts with an empty backlog, and data for the
           dead flow is dropped without reaching the sink *)
        let s2 = socket t in
        bind t s2 ~port:8080;
        listen t s2;
        check_b "backlog drained" true (accept t s2 = None);
        schedule_inbound t [ (1, Inb_data (f, "late")) ];
        pump t ~tick:1;
        check "stale data not delivered" 1 !delivered);
    Alcotest.test_case "accept after close raises Bad_socket" `Quick (fun () ->
        let t = stack () in
        let s1 = socket t in
        bind t s1 ~port:8080;
        listen t s1;
        close t s1;
        Alcotest.check_raises "socket gone" (Bad_socket s1) (fun () ->
            ignore (accept t s1)));
    Alcotest.test_case "undeliverable events vanish without reaching the sink"
      `Quick (fun () ->
        (* No listener on the port: the connect (and the data behind it)
           must be dropped unrecorded — the determinism contract says
           record and replay drop them alike. *)
        let t = stack () in
        let delivered = ref 0 in
        set_inbound_sink t (fun _ _ -> incr delivered);
        let f = flow ~src_port:40000 ~dst_port:9999 in
        schedule_inbound t
          [ (0, Inb_connect f); (1, Inb_data (f, "x")); (2, Inb_fin f) ];
        pump t ~tick:5;
        check "nothing delivered" 0 !delivered;
        check "schedule fully consumed" 0 (pending_inbound t));
    Alcotest.test_case "recv, EOF and readiness over a full flow life" `Quick
      (fun () ->
        let t = stack () in
        let l = socket t in
        bind t l ~port:8080;
        listen t l;
        check "listener idle" 0 (readiness t l);
        let f = flow ~src_port:40000 ~dst_port:8080 in
        schedule_inbound t
          [ (0, Inb_connect f); (0, Inb_data (f, "hello")); (5, Inb_fin f) ];
        pump t ~tick:0;
        check "listener ready" 1 (readiness t l);
        let conn = Option.get (accept t l) in
        check_b "flow recorded" true (flow_of t conn = Some f);
        check "rx available" 1 (readiness t conn);
        check_b "not yet eof" true (not (eof t conn));
        check_s "payload" "hello" (recv t conn ~len:64);
        check "drained, no fin yet" 0 (readiness t conn);
        pump t ~tick:5;
        check "fin raises the eof bit" 2 (readiness t conn);
        check_b "eof after drain" true (eof t conn);
        check_s "recv at eof" "" (recv t conn ~len:64));
    Alcotest.test_case "data after fin is refused" `Quick (fun () ->
        let t = stack () in
        let delivered = ref 0 in
        set_inbound_sink t (fun _ _ -> incr delivered);
        let l = socket t in
        bind t l ~port:8080;
        listen t l;
        let f = flow ~src_port:40000 ~dst_port:8080 in
        schedule_inbound t
          [ (0, Inb_connect f); (1, Inb_fin f); (2, Inb_data (f, "zombie")) ];
        pump t ~tick:2;
        check "connect + fin only" 2 !delivered);
    Alcotest.test_case "send to a closed loopback peer is swallowed" `Quick
      (fun () ->
        let t = stack () in
        let l = socket t in
        bind t l ~port:7000;
        listen t l;
        let c = socket t in
        ignore (connect t c ~ip:loopback_ip ~port:7000);
        let server = Option.get (accept t l) in
        close t server;
        (* like a TCP RST: bytes vanish, the sender does not crash *)
        check "send returns length" 4 (send t c "ping");
        check_b "client reads eof" true (eof t c));
  ]

(* -- traffic generator ---------------------------------------------------- *)

let sched ?(clients = 6) ?arrival ?data_gap () =
  Gen.make ?arrival ?data_gap ~dst_ip:guest_ip ~dst_port:8080
    ~payload:(fun i -> [ Printf.sprintf "req-%d" i ])
    clients

let gen_tests =
  [
    Alcotest.test_case "uniform arrivals space clients evenly" `Quick (fun () ->
        let s = sched ~arrival:(Gen.Uniform 40) () in
        List.iter
          (fun i -> check "tick" (500 + (i * 40)) (Gen.connect_tick s i))
          [ 0; 1; 2; 5 ]);
    Alcotest.test_case "burst arrivals land in groups" `Quick (fun () ->
        let s = sched ~arrival:(Gen.Burst { size = 3; gap = 300 }) () in
        check "first of burst 0" 500 (Gen.connect_tick s 0);
        check "last of burst 0" 500 (Gen.connect_tick s 2);
        check "first of burst 1" 800 (Gen.connect_tick s 3);
        check "last of burst 1" 800 (Gen.connect_tick s 5));
    Alcotest.test_case "ramp arrivals tighten monotonically" `Quick (fun () ->
        let s =
          sched ~clients:10 ~arrival:(Gen.Ramp { start_gap = 80; end_gap = 10 }) ()
        in
        let ticks = List.init 10 (Gen.connect_tick s) in
        check "starts at first_tick" 500 (List.hd ticks);
        let rec gaps = function
          | a :: (b :: _ as rest) -> (b - a) :: gaps rest
          | _ -> []
        in
        let gs = gaps ticks in
        check_b "strictly increasing ticks" true (List.for_all (fun g -> g > 0) gs);
        check_b "gaps narrow" true (List.hd (List.rev gs) < List.hd gs));
    Alcotest.test_case "per-client flows get distinct source ports" `Quick
      (fun () ->
        let s = sched () in
        let f0 = Gen.flow_of_client s 0 and f3 = Gen.flow_of_client s 3 in
        check "base port" Gen.default_base_src_port f0.Faros_os.Types.src_port;
        check "offset port" (Gen.default_base_src_port + 3) f3.src_port;
        check "server port" 8080 f0.dst_port);
    Alcotest.test_case "events: connect, data, fin per client, tick-sorted"
      `Quick (fun () ->
        let s = sched ~clients:3 ~data_gap:2 () in
        let evs = Gen.events s in
        check "three events per client" 9 (List.length evs);
        check_b "globally tick-sorted" true
          (let rec sorted = function
             | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
             | _ -> true
           in
           sorted evs);
        (* per-flow order: connect < data < fin *)
        List.iter
          (fun i ->
            let f = Gen.flow_of_client s i in
            let mine =
              List.filter_map
                (fun (_, e) ->
                  match e with
                  | Faros_os.Netstack.Inb_connect g when g = f -> Some `C
                  | Inb_data (g, _) when g = f -> Some `D
                  | Inb_fin g when g = f -> Some `F
                  | _ -> None)
                evs
            in
            check_b "life order" true (mine = [ `C; `D; `F ]))
          [ 0; 1; 2 ];
        check_b "horizon covers the last event" true
          (List.for_all (fun (at, _) -> at <= Gen.horizon s) evs);
        check "payload byte total" (String.length "req-0" * 3) (Gen.total_bytes s));
  ]

(* -- trace format: FTR2 with inbound events, FTR1 back-compat ------------- *)

let trace_tests =
  let open Faros_replay in
  [
    Alcotest.test_case "inbound events round-trip through serialize/parse"
      `Quick (fun () ->
        let f = flow ~src_port:40000 ~dst_port:8080 in
        let t =
          {
            Trace.events =
              [
                Trace.Inbound (10, Faros_os.Netstack.Inb_connect f);
                Trace.Inbound (12, Inb_data (f, "GET /\r\n"));
                Trace.Packet (f, "interleaved");
                Trace.Key 65;
                Trace.Inbound (20, Inb_fin f);
              ];
            final_tick = 999;
            syscall_count = 7;
          }
        in
        let data = Trace.serialize t in
        check_s "v2 magic" "FTR2" (String.sub data 0 4);
        let t' = Trace.parse data in
        check "inbound count" 3 (Trace.inbound_count t');
        check_b "schedule preserved" true
          (Trace.inbound_schedule t' = Trace.inbound_schedule t);
        check_b "events preserved" true (t'.events = t.events);
        check "final tick" t.final_tick t'.final_tick;
        check_b "rx bytes include inbound data" true
          (Trace.total_rx_bytes t' > 0));
    Alcotest.test_case "traces without inbound events stay byte-format v1"
      `Quick (fun () ->
        let f = flow ~src_port:4444 ~dst_port:49162 in
        let t =
          {
            Trace.events = [ Trace.Packet (f, "classic"); Trace.Key 13 ];
            final_tick = 5;
            syscall_count = 2;
          }
        in
        let data = Trace.serialize t in
        check_s "v1 magic" "FTR1" (String.sub data 0 4);
        check_b "parses back" true (Trace.parse data = t));
  ]

(* -- scenarios: record/replay, detection, whodunit ------------------------ *)

let fresh_store () =
  Faros_dift.Prov_intern.set_store (Faros_dift.Prov_intern.create_store ())

let build_graph (scn : Faros_corpus.Scenario.t) =
  fresh_store ();
  let builder = ref None in
  let outcome =
    Faros_corpus.Scenario.analyze
      ~extra_plugins:(fun kernel faros ->
        let b = Faros_graph.Build.create ~sample:scn.scn_name () in
        builder := Some b;
        [ Faros_graph.Build.plugin b ~kernel ~faros ])
      scn
  in
  let b = Option.get !builder in
  Faros_graph.Build.enrich b outcome.faros;
  (Faros_graph.Build.graph b, outcome)

let origin_flows (sl : Faros_graph.Slice.t) =
  List.filter_map
    (fun (n : Faros_graph.Graph.node) ->
      match n.n_kind with Faros_graph.Graph.Flow f -> Some f | _ -> None)
    sl.sl_origins

let scenario_tests =
  [
    Alcotest.test_case "benign server under load: deterministic and clean"
      `Slow (fun () ->
        fresh_store ();
        let scn, schd = Faros_corpus.Servers.benign_load ~clients:50 () in
        let outcome = Faros_corpus.Scenario.analyze scn in
        check_b "not diverged" true (not outcome.replay.diverged);
        check_b "no false positive" true (not (Core.Analysis.flagged outcome));
        check "every connection replayed" (3 * 50)
          (Faros_replay.Trace.inbound_count outcome.trace);
        check_b "under budget" true
          (outcome.record_ticks < scn.max_ticks);
        ignore schd);
    Alcotest.test_case
      "inject through server: the slice pins the one guilty flow" `Slow
      (fun () ->
        let scn, schd, guilty =
          Faros_corpus.Servers.inject_under_load ~clients:40 ()
        in
        let g, outcome = build_graph scn in
        check_b "flagged" true (Core.Analysis.flagged outcome);
        check_b "not diverged" true (not outcome.replay.diverged);
        let guilty_flow = Faros_corpus.Servers.guilty_flow schd guilty in
        let slices = Faros_graph.Slice.slices g in
        check_b "has slices" true (slices <> []);
        List.iter
          (fun sl ->
            match origin_flows sl with
            | [ f ] ->
              check_b "exactly the guilty 5-tuple" true (f = guilty_flow)
            | fs ->
              Alcotest.failf "expected 1 origin flow, got %d" (List.length fs))
          slices);
    Alcotest.test_case
      "acceptance: 500 connections, under budget, single guilty origin" `Slow
      (fun () ->
        let s =
          match Faros_corpus.Registry.find "netd_inject_500" with
          | Some s -> s
          | None -> Alcotest.fail "netd_inject_500 not registered"
        in
        let g, outcome = build_graph s.scenario in
        check_b "completes under the tick budget" true
          (outcome.record_ticks < s.scenario.max_ticks
          && outcome.replay.replay_ticks < s.scenario.max_ticks);
        check_b "not diverged" true (not outcome.replay.diverged);
        check_b "flagged" true (Core.Analysis.flagged outcome);
        let guilty =
          {
            Faros_os.Types.src_ip = Gen.default_src_ip;
            src_port = Gen.default_base_src_port + 250;
            dst_ip = guest_ip;
            dst_port = Faros_corpus.Servers.server_port;
          }
        in
        let slices = Faros_graph.Slice.slices g in
        check_b "has slices" true (slices <> []);
        List.iter
          (fun sl ->
            check_b "exactly the guilty flow, no benign ones" true
              (origin_flows sl = [ guilty ]))
          slices);
    Alcotest.test_case "staged C2: origins are the stager's own flows" `Slow
      (fun () ->
        let scn, schd = Faros_corpus.Servers.staged_c2 ~stages:3 () in
        let g, outcome = build_graph scn in
        check_b "flagged" true (Core.Analysis.flagged outcome);
        let stage_flows = List.init 3 (Gen.flow_of_client schd) in
        let slices = Faros_graph.Slice.slices g in
        check_b "has slices" true (slices <> []);
        let seen =
          List.concat_map origin_flows slices
          |> List.sort_uniq compare
        in
        check_b "every origin is a stage flow" true
          (List.for_all (fun f -> List.mem f stage_flows) seen);
        check_b "multiple stages contributed" true (List.length seen >= 2));
  ]

(* -- per-flow attribution under concurrency (mux daemon) ------------------ *)

(* Analyze with the DIFT fast path forced on or off; fresh interner per
   run so rendered provenance does not depend on run order. *)
let analyze_fast ~fast scn =
  Machine_defaults.with_defaults ~tb:true ~fast (fun () ->
      fresh_store ();
      Faros_corpus.Scenario.analyze scn)

(* Each mux slot's buffer must head with the netflow tag of the one flow
   that filled it — concurrency must not bleed taint across slots.  The
   image is wholesale file-tainted at load, so contiguous-region queries
   coalesce the whole buffer block into one run; the per-flow question
   needs per-byte shadow provenance instead. *)
let prov_at (outcome : Core.Analysis.outcome) (p : Faros_os.Process.t) vaddr =
  let mmu = outcome.faros.kernel.machine.mmu in
  let paddr =
    Faros_vm.Mmu.translate mmu ~asid:(Faros_os.Process.asid p) vaddr
  in
  Faros_dift.Shadow.get_mem outcome.faros.engine.shadow paddr

let netflows_of (outcome : Core.Analysis.outcome) prov =
  let store = outcome.faros.engine.store in
  List.filter_map
    (fun (tag : Faros_dift.Tag.t) ->
      match tag with
      | Faros_dift.Tag.Netflow i -> Faros_dift.Tag_store.netflow_of store i
      | _ -> None)
    (Faros_dift.Provenance.to_list prov)
  |> List.sort_uniq compare

let slot_flows (outcome : Core.Analysis.outcome) (layout : Daemon.mux_layout) =
  let kernel = outcome.faros.kernel in
  let muxd =
    match
      List.find_opt
        (fun (p : Faros_os.Process.t) ->
          Faros_os.Kstate.proc_name kernel p.pid = "muxd.exe")
        (Faros_os.Kstate.processes kernel)
    with
    | Some p -> p
    | None -> Alcotest.fail "muxd.exe not found"
  in
  List.init layout.Daemon.mux_slots (fun slot ->
      let base = layout.Daemon.mux_bufs + (slot * layout.Daemon.mux_stride) in
      let len = String.length (Faros_corpus.Servers.mux_payload slot) in
      (* first and last payload byte: both must name exactly this slot's
         flow, and nothing from any neighbour *)
      let head = netflows_of outcome (prov_at outcome muxd base) in
      let tail = netflows_of outcome (prov_at outcome muxd (base + len - 1)) in
      (slot, List.sort_uniq compare (head @ tail)))

let mux_tests =
  [
    Alcotest.test_case
      "mux fan-in: every slot heads with its own flow, fast path on and off"
      `Slow (fun () ->
        let scn, schd, layout = Faros_corpus.Servers.mux_fanin ~clients:6 () in
        let run fast =
          let outcome = analyze_fast ~fast scn in
          check_b "clean" true (not (Core.Analysis.flagged outcome));
          check_b "not diverged" true (not outcome.replay.diverged);
          let slots = slot_flows outcome layout in
          check_b "all six slots tainted" true (List.length slots >= 6);
          List.iter
            (fun (slot, flows) ->
              check_b
                (Printf.sprintf "slot %d attributed to exactly its flow" slot)
                true
                (flows = [ Gen.flow_of_client schd slot ]))
            slots;
          (* plain data for the cross-configuration comparison *)
          List.map
            (fun (slot, flows) ->
              ( slot,
                List.map
                  (fun (f : Faros_os.Types.flow) -> (f.src_port, f.dst_port))
                  flows ))
            slots
        in
        let slow = run false in
        let fast = run true in
        check_b "fast path changes nothing" true (slow = fast));
  ]

(* -- registry wiring ------------------------------------------------------ *)

let registry_tests =
  [
    Alcotest.test_case "sweep families enumerate and resolve" `Quick (fun () ->
        let sweeps = Faros_corpus.Registry.netd_sweeps () in
        (* 4 client counts x 3 arrivals x {benign, inject} + 3 staging *)
        check "sweep family size" 27 (List.length sweeps);
        List.iter
          (fun (s : Faros_corpus.Registry.sample) ->
            check_s "family" "netd-sweep" s.family;
            match Faros_corpus.Registry.find s.id with
            | Some found -> check_s "find resolves" s.id found.id
            | None -> Alcotest.failf "%s not findable" s.id)
          sweeps);
    Alcotest.test_case "showcase samples stay out of the core corpus" `Quick
      (fun () ->
        let showcase = Faros_corpus.Registry.netd_showcase () in
        check "showcase size" 5 (List.length showcase);
        let core_ids =
          List.map
            (fun (s : Faros_corpus.Registry.sample) -> s.id)
            (Faros_corpus.Registry.all ())
        in
        check "core corpus unchanged" 130 (List.length core_ids);
        List.iter
          (fun (s : Faros_corpus.Registry.sample) ->
            check_b (s.id ^ " not in core") true (not (List.mem s.id core_ids));
            check_b (s.id ^ " findable") true
              (Faros_corpus.Registry.find s.id <> None))
          showcase);
  ]

let () =
  Alcotest.run "netd"
    [
      ("netstack", netstack_tests);
      ("gen", gen_tests);
      ("trace", trace_tests);
      ("scenarios", scenario_tests);
      ("mux", mux_tests);
      ("registry", registry_tests);
    ]

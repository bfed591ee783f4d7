(* Server-side scenarios: guest daemons under host-initiated traffic.

   Every other sample in the corpus is a short-lived outbound client.
   These scenarios exercise the workload the paper's per-netflow
   provenance exists for: a long-lived server multiplexing many
   connections, where a flag must be pinned to the one guilty flow among
   hundreds of benign ones.

   The traffic is a deterministic [Faros_netd.Gen] schedule; at record
   time the netstack pump delivers it at slice boundaries and the trace
   stores the delivered events tick-stamped, so replay is exact. *)

open Faros_netd

(* Traffic targets the kernel's default local IP. *)
let guest_ip = Faros_os.Types.Ip.of_string "169.254.57.168"
let server_port = Daemon.default_port

(* What a benign client asks; never starts with {!Daemon.exec_magic}. *)
let benign_request i = Printf.sprintf "GET /item/%d HTTP/1.0\r\n\r\n" i

(* The guilty request: exec-magic plus a reflective payload linked for the
   worker's first allocation (the deterministic heap base). *)
let evil_request ?(text = "injected via netd") () =
  Progs.u32_le Daemon.exec_magic ^ Payloads.popup ~text ()

(* Tick budget: the schedule horizon, service time per connection, and
   slack for boot + the final drain. *)
let budget (s : Gen.schedule) = Gen.horizon s + (s.clients * 800) + 100_000

let listener_scenario ?(worker_close = false) ~name ~sched ~expected () =
  Scenario.make ~inbound:(Gen.events sched)
    ~images:
      [
        ("netd.exe", Daemon.listener_image ~expected ~worker_path:"worker.exe" ());
        ("worker.exe", Daemon.worker_image ~close_conn:worker_close ~vulnerable:true ());
      ]
    ~boot:[ "netd.exe" ] ~max_ticks:(budget sched) name

(* Benign server under load: the false-positive baseline.  The worker is
   the same vulnerable image the attack scenarios use — only the traffic
   differs, so a flag here would be a genuine false positive. *)
let benign_load ?(clients = 100) ?(arrival = Gen.Uniform 40) ?(name = "netd_benign_load")
    () =
  let sched =
    Gen.make ~arrival ~dst_ip:guest_ip ~dst_port:server_port
      ~payload:(fun i -> [ benign_request i ])
      clients
  in
  (listener_scenario ~name ~sched ~expected:clients (), sched)

(* Injection through the server: [clients] connections, all benign except
   the [guilty] one, whose request the vulnerable worker executes.  The
   whodunit question: which of the hundreds of flows delivered the
   payload? *)
let inject_under_load ?(clients = 100) ?guilty ?(arrival = Gen.Uniform 40)
    ?(worker_close = false) ?(name = "netd_inject_under_server") () =
  let guilty = match guilty with Some g -> g | None -> clients / 2 in
  let sched =
    Gen.make ~arrival ~dst_ip:guest_ip ~dst_port:server_port
      ~payload:(fun i ->
        if i = guilty then [ evil_request () ] else [ benign_request i ])
      clients
  in
  (listener_scenario ~worker_close ~name ~sched ~expected:clients (), sched, guilty)

let guilty_flow sched guilty = Gen.flow_of_client sched guilty

(* Arbitrary per-client chunk lists against the vulnerable listener: the
   property-based tests drive random benign/evil traffic mixes through
   exactly the machinery the curated samples use. *)
let custom_load ?(worker_close = false) ~name ~payloads () =
  let clients = List.length payloads in
  let table = Array.of_list payloads in
  let sched =
    Gen.make ~arrival:(Gen.Uniform 40) ~dst_ip:guest_ip ~dst_port:server_port
      ~payload:(fun i -> table.(i))
      clients
  in
  (listener_scenario ~worker_close ~name ~sched ~expected:clients (), sched)

(* Split [s] into [n] near-equal pieces (host side, for staging). *)
let split_payload s n =
  let len = String.length s in
  let per = (len + n - 1) / n in
  List.init n (fun k ->
      let off = k * per in
      if off >= len then "" else String.sub s off (min per (len - off)))

(* Staged C2: the payload travels split across [stages] sequential flows;
   the stager daemon reassembles and executes it.  No single flow carries
   enough to be the whole story — the slice must reach netflow origins
   through the reassembled buffer. *)
let staged_c2 ?(stages = 3) ?(name = "netd_staged_c2") () =
  let pieces = split_payload (Payloads.popup ~text:"staged via netd" ()) stages in
  let sched =
    Gen.make ~arrival:(Gen.Uniform 600) ~dst_ip:guest_ip ~dst_port:server_port
      ~payload:(fun i -> [ List.nth pieces i ])
      stages
  in
  let scn =
    Scenario.make ~inbound:(Gen.events sched)
      ~images:[ ("staged.exe", Daemon.stager_image ~stages ()) ]
      ~boot:[ "staged.exe" ] ~max_ticks:(budget sched) name
  in
  (scn, sched)

(* Mux fan-in: one process, [clients] concurrent connections, each
   delivering a distinct payload into its own slot buffer.  The
   per-flow-attribution test reads each slot's provenance back and
   asserts no cross-flow bleed. *)
let mux_payload i =
  Printf.sprintf "FLOW-%04d:%s" i (String.make (40 + (i mod 7)) (Char.chr (65 + (i mod 26))))

let mux_fanin ?(clients = 6) () =
  let image, layout = Daemon.mux_image ~slots:clients ~expected:clients () in
  let sched =
    Gen.make ~arrival:(Gen.Burst { size = 3; gap = 300 }) ~dst_ip:guest_ip
      ~dst_port:server_port
      ~payload:(fun i -> [ mux_payload i ])
      clients
  in
  let scn =
    Scenario.make ~inbound:(Gen.events sched)
      ~images:[ ("muxd.exe", image) ]
      ~boot:[ "muxd.exe" ] ~max_ticks:(budget sched) "netd_mux_fanin"
  in
  (scn, sched, layout)

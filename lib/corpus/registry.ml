(* The sample registry: every workload in the evaluation, with its expected
   verdict, so tests and benches iterate one authoritative list. *)

type category =
  | Attack of string  (* injection technique *)
  | Rat  (* Table IV non-injecting malware *)
  | Benign_app  (* Table IV benign software *)
  | Jit_applet of bool  (* native-stub applet? *)
  | Jit_ajax

type expected = Expect_flag | Expect_clean

type sample = {
  id : string;
  family : string;
  category : category;
  expected : expected;
  behaviors : Behavior.t list;
  scenario : Scenario.t;
}

(* The six in-memory-injection samples of Section VI. *)
let attacks () =
  [
    {
      id = "reflective_dll_inject";
      family = "meterpreter";
      category = Attack "reflective-dll-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_reflective.reflective_dll_inject ();
    };
    {
      id = "reverse_tcp_dns";
      family = "meterpreter";
      category = Attack "reflective-dll-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_reflective.reverse_tcp_dns ();
    };
    {
      id = "bypassuac_injection";
      family = "meterpreter";
      category = Attack "reflective-dll-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_reflective.bypassuac_injection ();
    };
    {
      id = "process_hollowing";
      family = "lab3-3";
      category = Attack "process-hollowing";
      expected = Expect_flag;
      behaviors = [ Behavior.Key_logger ];
      scenario = Attack_hollowing.scenario ();
    };
    {
      id = "darkcomet_injection";
      family = "darkcomet";
      category = Attack "code-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_injection.darkcomet ();
    };
    {
      id = "njrat_injection";
      family = "njrat";
      category = Attack "code-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_injection.njrat ();
    };
  ]

(* Transient variants: the payload scrubs itself before exiting — FAROS
   still flags (it watched the whole execution); snapshot forensics do not. *)
let transient_attacks () =
  [
    {
      id = "reflective_dll_inject_transient";
      family = "meterpreter";
      category = Attack "reflective-dll-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_reflective.reflective_dll_inject ~scrub:true ();
    };
    {
      id = "darkcomet_injection_transient";
      family = "darkcomet";
      category = Attack "code-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_injection.darkcomet ~scrub:true ();
    };
  ]

(* The discussion-section evasion: bit-by-bit laundering strips provenance,
   so the *default* policy is expected to miss it; the control-dependency
   policy recovers it.  Kept out of [all] — its expected verdict is
   policy-dependent. *)
let evasive_attacks () =
  [
    {
      id = "evasive_laundering_injection";
      family = "meterpreter";
      category = Attack "taint-laundering-injection";
      expected = Expect_clean;
      behaviors = [];
      scenario = Attack_evasive.scenario ();
    };
  ]

(* Beyond the paper's six samples: the full reflective-DLL form of the
   technique (sectioned image, in-guest mapping).  Kept out of [all] so the
   evaluation counts stay the paper's. *)
let extended_attacks () =
  [
    {
      id = "reflective_rdll";
      family = "meterpreter";
      category = Attack "reflective-dll-injection";
      expected = Expect_flag;
      behaviors = [];
      scenario = Attack_reflective.reflective_rdll ();
    };
  ]

(* Extra benign workloads (DLL loading, loopback IPC); kept out of [all]
   so the Table IV sample counts stay exactly the paper's. *)
let extras () =
  List.map
    (fun (id, scenario) ->
      {
        id;
        family = "extras";
        category = Benign_app;
        expected = Expect_clean;
        behaviors = [];
        scenario;
      })
    (Extras.samples ())

let rats () =
  List.map
    (fun (id, family, behaviors, scenario) ->
      { id; family; category = Rat; expected = Expect_clean; behaviors; scenario })
    (Rats.samples ())

let benign () =
  List.map
    (fun (id, family, behaviors, scenario) ->
      { id; family; category = Benign_app; expected = Expect_clean; behaviors; scenario })
    (Benign.samples ())

let jits () =
  List.map
    (fun (id, kind, native, scenario) ->
      let category, expected =
        match kind with
        | `Applet -> (Jit_applet native, if native then Expect_flag else Expect_clean)
        | `Ajax -> (Jit_ajax, Expect_clean)
      in
      { id; family = "jit"; category; expected; behaviors = []; scenario })
    (Jit.samples ())

(* Server-side showcase samples: guest daemons under host-initiated
   traffic (lib/netd).  Kept out of [all] so the Table II-IV sample
   counts stay exactly the paper's; `faros campaign --corpus netd|full`
   and the netd tests pull them in. *)
let netd_showcase () =
  let scn_benign, _ = Servers.benign_load ~clients:100 () in
  let scn_inject, _, _ = Servers.inject_under_load ~clients:100 () in
  let scn_staged, _ = Servers.staged_c2 ~stages:3 () in
  let scn_500, _, _ =
    Servers.inject_under_load ~clients:500 ~name:"netd_inject_500" ()
  in
  (* the bounded-memory acceptance sample: workers close their
     connections and arrivals pace the ~800-tick service time, so
     connections quiesce as fast as they arrive and the incremental
     builder's live graph stays O(concurrent connections) — constant in
     the connection count *)
  let scn_2000, _, _ =
    Servers.inject_under_load ~clients:2000 ~worker_close:true
      ~arrival:(Faros_netd.Gen.Uniform 1000) ~name:"netd_inject_2000" ()
  in
  [
    {
      id = "netd_benign_load";
      family = "netd";
      category = Benign_app;
      expected = Expect_clean;
      behaviors = [];
      scenario = scn_benign;
    };
    {
      id = "netd_inject_under_server";
      family = "netd";
      category = Attack "inject-through-server";
      expected = Expect_flag;
      behaviors = [];
      scenario = scn_inject;
    };
    {
      id = "netd_staged_c2";
      family = "netd";
      category = Attack "staged-c2";
      expected = Expect_flag;
      behaviors = [];
      scenario = scn_staged;
    };
    {
      id = "netd_inject_500";
      family = "netd";
      category = Attack "inject-through-server";
      expected = Expect_flag;
      behaviors = [];
      scenario = scn_500;
    };
    {
      id = "netd_inject_2000";
      family = "netd";
      category = Attack "inject-through-server";
      expected = Expect_flag;
      behaviors = [];
      scenario = scn_2000;
    };
  ]

(* Traffic-generator sweep families: client count x arrival pattern for
   both the benign and the inject-through-server shapes, plus payload
   staging depths — the long-job corpus the campaign farm scales on. *)
let netd_sweeps () =
  let arrivals =
    [
      ("uniform", Faros_netd.Gen.Uniform 40);
      ("burst", Faros_netd.Gen.Burst { size = 8; gap = 400 });
      ("ramp", Faros_netd.Gen.Ramp { start_gap = 80; end_gap = 10 });
    ]
  in
  let load_sweep =
    List.concat_map
      (fun clients ->
        List.concat_map
          (fun (aname, arrival) ->
            let benign_id = Printf.sprintf "netd_benign_c%d_%s" clients aname in
            let inject_id = Printf.sprintf "netd_inject_c%d_%s" clients aname in
            let scn_b, _ = Servers.benign_load ~clients ~arrival ~name:benign_id () in
            let scn_i, _, _ =
              Servers.inject_under_load ~clients ~arrival ~name:inject_id ()
            in
            [
              {
                id = benign_id;
                family = "netd-sweep";
                category = Benign_app;
                expected = Expect_clean;
                behaviors = [];
                scenario = scn_b;
              };
              {
                id = inject_id;
                family = "netd-sweep";
                category = Attack "inject-through-server";
                expected = Expect_flag;
                behaviors = [];
                scenario = scn_i;
              };
            ])
          arrivals)
      [ 8; 16; 32; 64 ]
  in
  let staging_sweep =
    List.map
      (fun stages ->
        let id = Printf.sprintf "netd_staged_s%d" stages in
        let scn, _ = Servers.staged_c2 ~stages ~name:id () in
        {
          id;
          family = "netd-sweep";
          category = Attack "staged-c2";
          expected = Expect_flag;
          behaviors = [];
          scenario = scn;
        })
      [ 2; 3; 4 ]
  in
  load_sweep @ staging_sweep

(* The generated sweep corpus (lib/corpus/sweep.ml): 1,000+ deterministic
   samples over the behaviour matrix.  Kept out of [all] so the core-130
   goldens stay the paper's; `faros campaign --corpus sweep1k` and the
   scaling bench pull it in. *)
let sweep1k () =
  List.map
    (fun (id, kind, scenario) ->
      let category, expected =
        match (kind : Sweep.kind) with
        | Sweep.Refl | Sweep.Self_inject ->
          (Attack "reflective-dll-injection", Expect_flag)
        | Sweep.Iat -> (Attack "code-injection", Expect_flag)
        | Sweep.Launder -> (Attack "taint-laundering-injection", Expect_clean)
        | Sweep.Drop -> (Benign_app, Expect_clean)
      in
      { id; family = "sweep"; category; expected; behaviors = []; scenario })
    (Sweep.samples ())

(* A deliberately crashing sample, hidden from [all]: its boot list names
   an executable that is never installed, so analyzing it raises
   [Faros_os.Spawn.Bad_executable] out of the record phase.  It exists to
   pin the campaign's crash-isolation property — a raising sample must
   become an [Error] verdict, not abort the run. *)
let crash_test () =
  {
    id = "crash_missing_boot_image";
    family = "hidden-test";
    category = Benign_app;
    expected = Expect_clean;
    behaviors = [];
    scenario =
      Scenario.make ~images:[] ~boot:[ "C:\\missing\\no_such_image.exe" ]
        "crash_missing_boot_image";
  }

let all () = attacks () @ rats () @ benign () @ jits ()

let find id =
  match
    List.find_opt
      (fun s -> s.id = id)
      (all () @ transient_attacks () @ evasive_attacks ()
     @ extended_attacks () @ extras () @ netd_showcase () @ netd_sweeps ()
     @ [ crash_test () ])
  with
  | Some _ as found -> found
  | None ->
    (* Sweep ids are prefixed, so the 1,000+ generated samples are only
       materialized when one is actually asked for. *)
    if String.length id >= 4 && String.sub id 0 4 = "swp_" then
      List.find_opt (fun s -> s.id = id) (sweep1k ())
    else None

let pp_category ppf = function
  | Attack t -> Fmt.pf ppf "attack(%s)" t
  | Rat -> Fmt.string ppf "malware"
  | Benign_app -> Fmt.string ppf "benign"
  | Jit_applet native -> Fmt.pf ppf "jit-applet%s" (if native then "(native)" else "")
  | Jit_ajax -> Fmt.string ppf "jit-ajax"

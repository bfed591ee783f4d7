(* The evaluation harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table2 fig7 ...   -- a subset

   Sections:
     table1   propagation rules (Table I) demonstration
     table2   FAROS output for the reflective DLL injection (Table II)
     fig7..fig10   provenance-tracking figures
     inject   DarkComet / Njrat code injection
     table3   JIT false-positive study (Table III)
     table4   non-injecting malware + benign FP study (Table IV)
     table5   performance overhead (Table V)
     cuckoo   comparison with Cuckoo sandbox + Volatility/malfind (Sec. VI-B)
     indirect indirect-flow experiments (Figs. 1-2)
     ablation detection under alternative DIFT policies
     evasion  taint-laundering evasion vs the policy response (Sec. VI-D)
     tomography tag-type confluence view (Sec. IV's inspiration)
     memory   shadow / tag-store growth per analysis

   Performance figures beyond Table V come from the pipeline benchmark:
   see bench/pipeline/README.md. *)

let pp = Format.std_formatter

let section title = Fmt.pf pp "@.=== %s ===@." title

(* -- helpers ------------------------------------------------------------ *)

let analyze ?config (sample : Faros_corpus.Registry.sample) =
  Faros_corpus.Scenario.analyze ?config sample.scenario

let flag_of (outcome : Core.Analysis.outcome) =
  match Core.Report.flagged_sites outcome.report with
  | f :: _ -> Some f
  | [] -> None

let render_prov (outcome : Core.Analysis.outcome) prov =
  Core.Report.render_provenance ~store:outcome.faros.engine.store
    ~name_of_asid:(Core.Faros_plugin.name_of_asid outcome.faros.kernel)
    prov

(* One provenance-tracking figure: the flagged instruction, its provenance,
   and the provenance of the memory it read. *)
let figure ~title ~sample_id () =
  section title;
  match Faros_corpus.Registry.find sample_id with
  | None -> Fmt.pf pp "unknown sample %s@." sample_id
  | Some sample -> (
    let outcome = analyze sample in
    match flag_of outcome with
    | None -> Fmt.pf pp "NOT FLAGGED (unexpected)@."
    | Some f ->
      Fmt.pf pp "flagged instruction     %a  (at 0x%08X in %s)@." Faros_vm.Disasm.pp
        f.f_instr f.f_pc f.f_process;
      Fmt.pf pp "instruction provenance  %s@." (render_prov outcome f.f_instr_prov);
      Fmt.pf pp "reads memory address    0x%08X@." f.f_read_vaddr;
      Fmt.pf pp "address provenance      %s@." (render_prov outcome f.f_read_prov))

(* -- table 1 ------------------------------------------------------------ *)

let table1 () =
  section "Table I: FAROS propagation rules";
  let open Faros_dift in
  let shadow = Shadow.create () in
  let store = Tag_store.create () in
  let nf =
    Tag_store.netflow store
      { src_ip = 0x01020304; src_port = 4444; dst_ip = 0x05060708; dst_port = 49162 }
  in
  let ft = Tag_store.file store ~name:"a.txt" ~version:1 in
  let get = Shadow.get_mem shadow and set = Shadow.set_mem shadow in
  set 0x100 (Provenance.singleton nf);
  set 0x101 (Provenance.singleton ft);
  set 0x200 (get 0x100);
  Fmt.pf pp "copy(a, b)     prov(a) <- prov(b)            : %a@." Provenance.pp
    (get 0x200);
  set 0x201 (Provenance.union (get 0x100) (get 0x101));
  Fmt.pf pp "union(a, b, c) prov(a) <- prov(b) U prov(c)  : %a@." Provenance.pp
    (get 0x201);
  set 0x200 Provenance.empty;
  Fmt.pf pp "delete(a)      prov(a) <- {}                 : %s@."
    (if Provenance.is_empty (get 0x200) then "{}" else "non-empty")

(* -- table 2 ------------------------------------------------------------ *)

let table2 () =
  section "Table II: FAROS output for the reflective DLL injection";
  match Faros_corpus.Registry.find "reflective_dll_inject" with
  | None -> ()
  | Some sample ->
    let outcome = analyze sample in
    Core.Faros_plugin.pp_report pp outcome.faros

(* -- figures ------------------------------------------------------------ *)

let fig7 () =
  figure
    ~title:"Fig. 7: reflective DLL injection (Meterpreter) into notepad.exe"
    ~sample_id:"reflective_dll_inject" ()

let fig8 () =
  figure ~title:"Fig. 8: reverse_tcp_dns (self-injection)"
    ~sample_id:"reverse_tcp_dns" ()

let fig9 () =
  figure ~title:"Fig. 9: bypassuac_injection into firefox.exe"
    ~sample_id:"bypassuac_injection" ()

let fig10 () =
  figure ~title:"Fig. 10: process hollowing of svchost.exe"
    ~sample_id:"process_hollowing" ()

let inject () =
  figure ~title:"Code injection: DarkComet" ~sample_id:"darkcomet_injection" ();
  figure ~title:"Code injection: Njrat" ~sample_id:"njrat_injection" ()

(* -- fig 4: the provenance life cycle --------------------------------------- *)

let fig4 () =
  section "Fig. 4: a byte's provenance list across its life cycle";
  let exp = Faros_corpus.Fig4.experiment () in
  let outcome = Faros_corpus.Scenario.analyze exp.exp_scenario in
  let kernel = outcome.faros.kernel in
  Fmt.pf pp
    "network -> process1.exe -> process2.exe -> %s -> process3.exe@."
    Faros_corpus.Fig4.file1;
  (match
     List.find_opt
       (fun (p : Faros_os.Process.t) -> p.proc_name = "process3.exe")
       (Faros_os.Kstate.processes kernel)
   with
  | None -> Fmt.pf pp "process3 missing@."
  | Some p3 ->
    let paddr =
      Faros_vm.Mmu.translate kernel.machine.mmu
        ~asid:(Faros_os.Process.asid p3) exp.exp_sink_vaddr
    in
    let prov = Faros_dift.Shadow.get_mem outcome.faros.engine.shadow paddr in
    Fmt.pf pp "provenance of the byte process3 read (oldest first):@.  %s@."
      (render_prov outcome prov));
  Fmt.pf pp "(compare: Fig. 4's NetFlow -> Process 1 -> Process 2 -> File 1 -> Process 3)@."

(* -- table 3 ------------------------------------------------------------ *)

let table3 () =
  section "Table III: JIT false-positive study (10 Java applets, 10 AJAX sites)";
  let jits = Faros_corpus.Registry.jits () in
  let applet_flags = ref 0 and ajax_flags = ref 0 in
  Fmt.pf pp "%-28s %-12s %-8s@." "workload" "kind" "flagged";
  List.iter
    (fun (s : Faros_corpus.Registry.sample) ->
      let outcome = analyze s in
      let flagged = Core.Report.flagged outcome.report in
      if flagged then begin
        match s.category with
        | Jit_applet _ -> incr applet_flags
        | _ -> incr ajax_flags
      end;
      Fmt.pf pp "%-28s %-12s %-8s@." s.id
        (match s.category with
        | Jit_applet true -> "applet(nat)"
        | Jit_applet false -> "applet"
        | _ -> "ajax")
        (if flagged then "YES (FP)" else "no"))
    jits;
  Fmt.pf pp "applets flagged: %d/10 (paper: 2/10);  AJAX flagged: %d/10 (paper: 0/10)@."
    !applet_flags !ajax_flags;
  let config =
    Core.Config.with_whitelist Core.Whitelist.jit_default Core.Config.default
  in
  let after =
    List.length
      (List.filter
         (fun s -> Core.Report.flagged (analyze ~config s).Core.Analysis.report)
         jits)
  in
  Fmt.pf pp "after whitelisting java.exe: %d flagged (paper: 0)@." after

(* -- table 4 ------------------------------------------------------------ *)

let table4 () =
  section "Table IV: 104 non-injecting malware and benign samples";
  let matrix =
    List.map (fun (f, _, bs) -> ("malware", f, bs)) Faros_corpus.Rats.families
    @ List.map (fun (f, _, bs) -> ("benign", f, bs)) Faros_corpus.Benign.programs
    @ [ ("benign", "snipping_tool", []) ]
  in
  Fmt.pf pp "%-20s %-8s" "family" "kind";
  List.iter
    (fun b ->
      let s = Faros_corpus.Behavior.to_string b in
      Fmt.pf pp " %-4s" (String.sub s 0 (min 4 (String.length s))))
    Faros_corpus.Behavior.all;
  Fmt.pf pp "@.";
  List.iter
    (fun (kind, family, bs) ->
      Fmt.pf pp "%-20s %-8s" family kind;
      List.iter
        (fun b -> Fmt.pf pp " %-4s" (if List.mem b bs then "X" else ""))
        Faros_corpus.Behavior.all;
      Fmt.pf pp "@.")
    matrix;
  let samples = Faros_corpus.Registry.rats () @ Faros_corpus.Registry.benign () in
  let fps =
    List.filter
      (fun (s : Faros_corpus.Registry.sample) ->
        Core.Report.flagged (analyze s).Core.Analysis.report)
      samples
  in
  Fmt.pf pp "samples analyzed: %d;  false positives: %d (paper: 0)@."
    (List.length samples) (List.length fps);
  List.iter (fun (s : Faros_corpus.Registry.sample) -> Fmt.pf pp "  FP: %s@." s.id) fps

(* -- table 5 ------------------------------------------------------------ *)

(* Each program is recorded once; its trace then replays bare and under
   FAROS, alternating, [rounds] times each, every replay after the
   pipeline benchmark's hygiene (a fresh provenance store and a compacted
   heap) and timed by its clock.  A column is the median and interquartile
   range of its replays; the overhead is the ratio of the medians, and the
   peak tainted bytes come from one more, tick-sampled FAROS replay. *)
let table5 () =
  let open Bench_pipeline in
  section "Table V: replay time without / with FAROS";
  let rounds = 11 in
  Fmt.pf pp "%-16s %-8s %-27s %-27s %-9s %s@." "application" "ticks"
    "replay (s) [p25-p75]" "replay+FAROS (s) [p25-p75]" "overhead" "peak tainted";
  let column times =
    let p q = Stats.percentile q times in
    Printf.sprintf "%.4f [%.4f-%.4f]" (p 50.) (p 25.) (p 75.)
  in
  let ratios =
    List.map
      (fun (label, scn) ->
        let _k, trace = Faros_corpus.Scenario.record scn in
        let plain = ref [] and faros = ref [] in
        for _ = 1 to rounds do
          Harness.fresh ();
          plain := Whodunit.replay_plain scn trace :: !plain;
          Harness.fresh ();
          faros := Whodunit.replay_faros scn trace :: !faros
        done;
        let telemetry = Core.Telemetry.create () in
        ignore (Faros_corpus.Scenario.analyze_trace ~telemetry scn trace);
        let peak =
          List.fold_left max 0 (Faros_obs.Series.column telemetry "tainted_bytes")
        in
        let ratio = Stats.median !faros /. Stats.median !plain in
        Fmt.pf pp "%-16s %-8d %-27s %-27s %-9s %d@." label trace.final_tick
          (column !plain) (column !faros)
          (Printf.sprintf "%.1fx" ratio)
          peak;
        ratio)
      (Faros_corpus.Perf.workloads ())
  in
  Fmt.pf pp "mean overhead: %.1fx over plain replay (paper: 14x over PANDA replay)@."
    (List.fold_left ( +. ) 0. ratios /. float (List.length ratios));
  Fmt.pf pp "(%d replays per column; %d cores, OCaml %s)@." rounds (Harness.nproc ())
    Sys.ocaml_version

(* -- cuckoo comparison --------------------------------------------------- *)

let cuckoo () =
  section "Sec. VI-B: FAROS vs Cuckoo sandbox + Volatility/malfind";
  Faros_sandbox.Compare.pp_header pp ();
  List.iter
    (fun (s : Faros_corpus.Registry.sample) ->
      Faros_sandbox.Compare.pp_row pp (Faros_sandbox.Compare.run s))
    (Faros_corpus.Registry.attacks () @ Faros_corpus.Registry.transient_attacks ());
  Fmt.pf pp
    "(transient = payload unmaps itself before the snapshot: malfind goes blind, FAROS does not)@."

(* -- indirect flows ------------------------------------------------------ *)

(* The question Figs. 1-2 pose is whether the *network* taint survives the
   indirect copy — file tags on image bytes are unrelated — so both counts
   are restricted to netflow provenance. *)
let output_taint (outcome : Core.Analysis.outcome)
    (exp : Faros_corpus.Indirect.experiment) =
  let kernel = outcome.faros.kernel in
  let shadow = outcome.faros.engine.shadow in
  match Faros_os.Kstate.processes kernel with
  | [] -> (0, 0)
  | p :: _ ->
    let asid = Faros_os.Process.asid p in
    let tainted = ref 0 in
    for i = 0 to exp.exp_len - 1 do
      let paddr =
        Faros_vm.Mmu.translate kernel.machine.mmu ~asid (exp.exp_output_vaddr + i)
      in
      if Faros_dift.Provenance.has_netflow (Faros_dift.Shadow.get_mem shadow paddr)
      then incr tainted
    done;
    let netflow_total = ref 0 in
    Faros_dift.Shadow.iter_mem shadow (fun _ prov ->
        if Faros_dift.Provenance.has_netflow prov then incr netflow_total);
    (!tainted, !netflow_total)

let indirect () =
  section "Figs. 1-2: indirect flows under different propagation policies";
  let policies =
    [
      Faros_dift.Policy.faros_default;
      Faros_dift.Policy.with_address_deps;
      Faros_dift.Policy.with_control_deps;
      Faros_dift.Policy.with_all_indirect;
      Faros_dift.Policy.minos;
    ]
  in
  List.iter
    (fun (exp : Faros_corpus.Indirect.experiment) ->
      Fmt.pf pp "@.%s (copy %d tainted input bytes through an indirect flow)@."
        exp.exp_name exp.exp_len;
      Fmt.pf pp "%-16s %-26s %-18s@." "policy" "output bytes w/ netflow"
        "netflow-tainted bytes";
      List.iter
        (fun (policy : Faros_dift.Policy.t) ->
          let config = Core.Config.with_policy policy Core.Config.default in
          let outcome = Faros_corpus.Scenario.analyze ~config exp.exp_scenario in
          let out_tainted, total = output_taint outcome exp in
          Fmt.pf pp "%-16s %-26s %-18d@." policy.policy_name
            (Printf.sprintf "%d/%d" out_tainted exp.exp_len)
            total)
        policies)
    [
      Faros_corpus.Indirect.lookup_experiment ();
      Faros_corpus.Indirect.bitcopy_experiment ();
    ]

(* -- ablation ------------------------------------------------------------ *)

let ablation () =
  section "Ablation: detection and FP rate under alternative DIFT policies";
  let policies =
    [
      Faros_dift.Policy.faros_default;
      Faros_dift.Policy.bit_taint;
      Faros_dift.Policy.minos;
      Faros_dift.Policy.with_address_deps;
    ]
  in
  let attacks = Faros_corpus.Registry.attacks () in
  let clean = Faros_corpus.Registry.rats () @ Faros_corpus.Registry.benign () in
  let jits = Faros_corpus.Registry.jits () in
  Fmt.pf pp "%-16s %-14s %-16s %-12s@." "policy" "attacks" "clean-sample FPs"
    "JIT flags";
  List.iter
    (fun (policy : Faros_dift.Policy.t) ->
      let config = Core.Config.with_policy policy Core.Config.default in
      let count samples =
        List.length
          (List.filter
             (fun (s : Faros_corpus.Registry.sample) ->
               Core.Report.flagged (analyze ~config s).Core.Analysis.report)
             samples)
      in
      Fmt.pf pp "%-16s %d/%-12d %d/%-14d %d/%-10d@." policy.policy_name
        (count attacks) (List.length attacks) (count clean) (List.length clean)
        (count jits) (List.length jits))
    policies;
  Fmt.pf pp
    "(bit-taint/minos track network input only: file-borne hollowing escapes them)@."

(* -- evasion ------------------------------------------------------------- *)

let evasion () =
  section
    "Discussion: taint-laundering evasion (bit-by-bit copy) vs policy response";
  match Faros_corpus.Registry.find "evasive_laundering_injection" with
  | None -> Fmt.pf pp "missing evasive sample@."
  | Some sample ->
    Fmt.pf pp
      "the client launders the downloaded payload through a control-dependent@.";
    Fmt.pf pp "bit-copy before injecting it into notepad.exe.@.";
    Fmt.pf pp "%-34s %-10s %s@." "policy" "flagged" "note";
    List.iter
      (fun ((policy : Faros_dift.Policy.t), note) ->
        let config = Core.Config.with_policy policy Core.Config.default in
        let outcome = analyze ~config sample in
        Fmt.pf pp "%-34s %-10b %s@." policy.policy_name
          (Core.Report.flagged outcome.report)
          note)
      [
        (Faros_dift.Policy.faros_default, "provenance stripped: evasion succeeds");
        ( Faros_dift.Policy.with_control_deps,
          "policy response: control deps re-taint the copy" );
      ];
    Fmt.pf pp
      "(the paper's flexibility argument: evasions that stay information-flow-based@.";
    Fmt.pf pp " are answerable by updating the policy given to FAROS)@."

(* -- data-flow tomography --------------------------------------------------- *)

(* The tag-confluence idea comes from data-flow tomography (Mazloom et al.):
   look at which *combinations* of tag types co-occur on bytes.  This
   section renders that view for a clean sample and an attacked one — the
   netflow+export confluence appears only under attack. *)
let tomography () =
  section "Data-flow tomography: tag-type confluences across memory";
  let render sample_id =
    match Faros_corpus.Registry.find sample_id with
    | None -> ()
    | Some sample ->
      let outcome = analyze sample in
      let counts = Hashtbl.create 8 in
      Faros_dift.Shadow.iter_mem outcome.faros.engine.shadow (fun _ prov ->
          let key =
            Faros_dift.Provenance.distinct_types prov
            |> List.map Core.Prov_query.ty_name
            |> String.concat "+"
          in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)));
      Fmt.pf pp "@.%s:@." sample_id;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> List.iter (fun (k, v) -> Fmt.pf pp "  %-44s %6d bytes@." k v)
  in
  render "skype_s0";
  render "reflective_dll_inject";
  Fmt.pf pp
    "@.(only the attacked run has netflow+process bytes — the injected code — and@.";
  Fmt.pf pp
    " process+export-table bytes — the directory entries it walked.  Their meeting@.";
  Fmt.pf pp
    " at a flagged load is Section IV's tag confluence.)@."

(* -- memory overhead ------------------------------------------------------ *)

(* The discussion section worries about provenance memory: the tick sampler
   records shadow and tag-store growth over the whole replay, so the table
   reports peaks — not just one-shot endpoints.  Each sample is analysed
   with a provenance store of its own, as a campaign job is, so its
   interned count is its own whatever ran before it. *)
let memory () =
  section "Memory overhead: shadow and tag-store growth (tick-sampled)";
  Fmt.pf pp "%-28s %-10s %-8s %-13s %-14s %-8s %-10s %-10s %-8s %-8s@." "sample"
    "ticks" "rows" "peak tainted" "final tainted" "pages" "interned" "netflow"
    "process" "file";
  List.iter
    (fun (s : Faros_corpus.Registry.sample) ->
      let series = Core.Telemetry.create () in
      let outcome =
        Faros_dift.Provenance.with_store (Faros_dift.Provenance.create_store ()) (fun () ->
            Faros_corpus.Scenario.analyze ~telemetry:series s.scenario)
      in
      let peak name = List.fold_left max 0 (Faros_obs.Series.column series name) in
      let final name =
        match Faros_obs.Series.last series with
        | Some row ->
          let cols = Faros_obs.Series.columns series in
          let rec idx i = function
            | [] -> 0
            | c :: rest -> if c = name then row.(i) else idx (i + 1) rest
          in
          idx 0 cols
        | None -> 0
      in
      Fmt.pf pp "%-28s %-10d %-8d %-13d %-14d %-8d %-10d %-10d %-8d %-8d@." s.id
        outcome.replay.replay_ticks
        (Faros_obs.Series.total series)
        (peak "tainted_bytes") (final "tainted_bytes") (final "shadow_pages")
        (final "interned_provs") (final "netflow_tags") (final "process_tags")
        (final "file_tags"))
    (Faros_corpus.Registry.attacks ());
  Fmt.pf pp
    "(provenance lists are capped at %d tags, bounding the paper's memory-exhaustion evasion)@."
    Faros_dift.Provenance.max_length

(* -- driver --------------------------------------------------------------- *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig4", fig4);
    ("inject", inject);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("cuckoo", cuckoo);
    ("indirect", indirect);
    ("ablation", ablation);
    ("evasion", evasion);
    ("tomography", tomography);
    ("memory", memory);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | [] | [ _ ] -> List.map fst sections
    | _ :: rest -> rest
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Fmt.pf pp "unknown section %S; available: %s@." name
          (String.concat " " (List.map fst sections)))
    requested;
  Fmt.pf pp "@.done.@."

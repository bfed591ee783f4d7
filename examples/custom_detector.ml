(* Building a *new* detector on the FAROS machinery.

     dune exec examples/custom_detector.exe

   The paper's closing argument is that defining attacks as information
   flows makes the tool adaptable: change the policy, catch a different
   attack class.  This example writes a data-exfiltration detector in a
   few dozen lines: flag any send() whose outgoing bytes carry the file
   tag of a sensitive file — regardless of how many processes or memory
   copies the data went through on the way.

   We run it over the Table IV corpus: RATs with the File_transfer or
   Upload behaviour exfiltrate secret.txt/upload.bin and get flagged;
   everything else stays clean.  (FAROS's own injection detector says
   nothing about any of these — different policy, different attacks.) *)

let pp = Format.std_formatter

let sensitive = [ "secret.txt"; "upload.bin" ]

type exfil = { ex_process : string; ex_file : string; ex_flow : Faros_os.Types.flow }

(* The custom plugin: reuse the FAROS engine (taint insertion and
   propagation) but watch Net_send instead of export-table loads. *)
let exfil_plugin (kernel : Faros_os.Kernel.t) =
  let faros = Core.Faros_plugin.create kernel in
  let hits = ref [] in
  let on_send (ev : Faros_os.Os_event.t) =
    match ev with
    | Net_send { pid; flow; src } ->
      Faros_vm.Extent.iter
        (fun paddr ->
          let prov = Faros_dift.Shadow.get_mem faros.engine.shadow paddr in
          List.iter
            (fun idx ->
              match Faros_dift.Tag_store.file_of faros.engine.store idx with
              | Some { file_name; _ } when List.mem file_name sensitive ->
                let hit =
                  {
                    ex_process = Faros_os.Kstate.proc_name kernel pid;
                    ex_file = file_name;
                    ex_flow = flow;
                  }
                in
                if not (List.mem hit !hits) then hits := hit :: !hits
              | _ -> ())
            (Faros_dift.Provenance.file_indices prov))
        src
    | _ -> ()
  in
  let base = Core.Faros_plugin.plugin faros in
  ( hits,
    Faros_replay.Plugin.make "exfil-detector"
      ?on_exec:base.on_exec
      ~on_os_event:(fun ev ->
        (match base.on_os_event with Some f -> f ev | None -> ());
        on_send ev) )

let run_sample (s : Faros_corpus.Registry.sample) =
  let scn = s.scenario in
  let _, trace = Faros_corpus.Scenario.record scn in
  let hits = ref (ref []) in
  ignore
    (Faros_corpus.Scenario.replay_with scn
       ~plugins:(fun kernel ->
         let h, plugin = exfil_plugin kernel in
         hits := h;
         [ plugin ])
       trace);
  List.rev !(!hits)

let () =
  let samples =
    List.filter
      (fun (s : Faros_corpus.Registry.sample) ->
        (* a representative slice: one build of each family + benign *)
        String.length s.id >= 3
        && String.sub s.id (String.length s.id - 3) 3 = "_s0")
      (Faros_corpus.Registry.rats () @ Faros_corpus.Registry.benign ())
  in
  Fmt.pf pp "custom policy: flag sends whose bytes carry tags of %s@."
    (String.concat " or " sensitive);
  Fmt.pf pp "%-28s %-12s %s@." "sample" "verdict" "evidence";
  let flagged = ref 0 in
  List.iter
    (fun (s : Faros_corpus.Registry.sample) ->
      match run_sample s with
      | [] -> Fmt.pf pp "%-28s %-12s@." s.id "clean"
      | hits ->
        incr flagged;
        List.iter
          (fun h ->
            Fmt.pf pp "%-28s %-12s %s leaked %s to %a@." s.id "EXFILTRATION"
              h.ex_process h.ex_file Faros_os.Types.pp_flow h.ex_flow)
          hits)
    samples;
  Fmt.pf pp
    "@.%d/%d samples flagged — all and only those with File Transfer / Upload behaviours.@."
    !flagged (List.length samples);
  Fmt.pf pp
    "Same engine, same tags, different confluence rule: the flexibility the paper claims.@."

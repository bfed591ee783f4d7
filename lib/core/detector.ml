(* The flagging policy: tag confluence (Section IV / V-B).

   On every executed load the detector checks:
   - the *read* location carries an export-table tag (the load is parsing
     linking/loading structures), and
   - the *instruction's own code bytes* carry at least
     [config.min_process_tags] distinct process tags (one by default; see
     config.mli) plus an input-source tag — netflow for network-borne
     payloads, or a file tag when the configuration also accepts
     disk-borne payloads (Fig. 10).

   Under a single-bit policy no provenance exists to interrogate, so the
   rule degrades to "tainted code reads the export region" — the ablation
   showing why provenance tags are load-bearing. *)

type t = {
  config : Config.t;
  report : Report.t;
  name_of_asid : int -> string;
  flag_observers : (Report.flag -> unit) Queue.t;
      (* run on every recorded flag, registration order (the attack-graph
         builder hangs off this) *)
  sink : Faros_obs.Sink.t;
  c_loads_checked : Faros_obs.Metrics.counter;
  c_flags : Faros_obs.Metrics.counter;
  c_suppressed : Faros_obs.Metrics.counter;
  h_instr_prov_len : Faros_obs.Metrics.histogram;
}

let create ?(metrics = Faros_obs.Metrics.create ())
    ?(sink = Faros_obs.Sink.null) ~config ~name_of_asid () =
  {
    config;
    report = Report.create ();
    name_of_asid;
    flag_observers = Queue.create ();
    sink;
    c_loads_checked = Faros_obs.Metrics.counter metrics "detector.loads_checked";
    c_flags = Faros_obs.Metrics.counter metrics "detector.flags";
    c_suppressed = Faros_obs.Metrics.counter metrics "detector.suppressed";
    h_instr_prov_len = Faros_obs.Metrics.histogram metrics "detector.instr_prov_len";
  }

let loads_checked t = Faros_obs.Metrics.counter_value t.c_loads_checked

let add_flag_observer t f = Queue.add f t.flag_observers

(* With interned provenance every clause is an integer compare: the type
   queries read the bitmask cached on the node, and the distinct process
   count is cached at intern time. *)
let matches t (info : Faros_dift.Engine.load_info) =
  Faros_dift.Provenance.has_export info.li_read_prov
  &&
  if t.config.policy.single_bit then
    not (Faros_dift.Provenance.is_empty info.li_instr_prov)
  else
    let has_source =
      Faros_dift.Provenance.has_netflow info.li_instr_prov
      || ((not t.config.require_netflow)
         && Faros_dift.Provenance.has_file info.li_instr_prov)
    in
    Faros_dift.Provenance.distinct_process_count info.li_instr_prov
    >= t.config.min_process_tags
    && has_source

let on_load t ~tick (info : Faros_dift.Engine.load_info) =
  Faros_obs.Metrics.incr t.c_loads_checked;
  let hit = matches t info in
  (* The confluence-check event fires only for loads that pass the cheap
     export-tag gate — the candidate confluence evaluations — so enabling
     tracing does not buffer one event per executed load. *)
  if
    Faros_obs.Sink.enabled t.sink
    && Faros_dift.Provenance.has_export info.li_read_prov
  then
    Faros_obs.Sink.trace_event t.sink ~cat:"detector" ~name:"confluence_check"
      ~pid:info.li_asid
      [
        ("pc", Int info.li_pc);
        ("read_vaddr", Int info.li_read_vaddr);
        ("instr_prov_len", Int (Faros_dift.Provenance.length info.li_instr_prov));
        ("hit", Bool hit);
      ];
  if hit then begin
    Faros_obs.Metrics.incr t.c_flags;
    Faros_obs.Metrics.observe t.h_instr_prov_len
      (Faros_dift.Provenance.length info.li_instr_prov);
    let process = t.name_of_asid info.li_asid in
    let whitelisted =
      Whitelist.is_whitelisted ~whitelist:t.config.whitelist process
    in
    if whitelisted then Faros_obs.Metrics.incr t.c_suppressed;
    if Faros_obs.Sink.enabled t.sink then
      Faros_obs.Sink.trace_event t.sink ~cat:"detector"
        ~name:(if whitelisted then "whitelist_suppression" else "flag")
        ~pid:info.li_asid
        [
          ("process", Str process);
          ("pc", Int info.li_pc);
          ("instr", Str (Faros_vm.Disasm.to_string info.li_instr));
          ("tick", Int tick);
        ];
    let flag =
      {
        Report.f_tick = tick;
        f_pc = info.li_pc;
        f_asid = info.li_asid;
        f_process = process;
        f_instr = info.li_instr;
        f_instr_prov = info.li_instr_prov;
        f_read_vaddr = info.li_read_vaddr;
        f_read_prov = info.li_read_prov;
        f_whitelisted = whitelisted;
      }
    in
    Report.add t.report flag;
    Queue.iter (fun observe -> observe flag) t.flag_observers
  end

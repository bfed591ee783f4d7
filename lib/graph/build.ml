(* Graph construction, both ways the issue of forensics poses it:

   - online: a replay plugin subscribed to the kernel's Os_event stream
     (interactions become edges as they happen) plus a detector flag
     observer (each effective flag becomes a flag-site node, wired to the
     flagging process and to every tag in the flagged instruction's
     provenance — the backbone that guarantees slices reach origins);
   - offline: once the replay is over, [enrich] walks the shadow-memory
     state through {!Core.Prov_query} and adds the tainted-region nodes
     with tainted-by edges from their resolved sources, plus per-process
     taint totals.

   Construction is narrated as a {!Delta} stream rather than performed by
   in-place mutation: the builder assigns each entity a first-encounter
   ordinal (the resident node id) plus a run-independent stable identity
   string, and every consumer — the default resident {!Graph.t}, or a
   bounded-memory segment writer — replays the same stream.  The builder
   also watches for quiescence (a closed flow, an exited process) and
   emits retirement hints, which is what lets a streaming consumer keep
   the resident working set O(live entities) over arbitrarily long server
   traces.

   Both passes resolve tag indices against the analysis's own tag store,
   so graph nodes and Table II lines name the same objects. *)

(* Lineage bookkeeping behind the stable process identity: image-name
   hash plus the creation chain (parent lineage, sibling index), which is
   deterministic across runs of the same scenario and distinguishes the
   2,000 worker.exe instances a server trace spawns. *)
type pinfo = {
  pi_name : string;  (* name at creation — stable, unlike Kstate lookups *)
  pi_parent : int option;
  pi_index : int;  (* sibling index under its parent (or boot order) *)
  mutable pi_children : int;
}

type t = {
  b_graph : Graph.t option;  (* the resident consumer's graph, if any *)
  b_resident : Delta.resident option;
  b_consumer : (Delta.t -> unit) option;  (* extra stream consumer *)
  c_events : Faros_obs.Metrics.counter option;
  c_flags : Faros_obs.Metrics.counter option;
  mutable b_kernel : Faros_os.Kernel.t option;
  mutable b_store : Faros_dift.Tag_store.t option;
  mutable b_profile : Faros_obs.Profile.t;  (* adopted from the plugin *)
  (* ordinal + identity assignment: one entry per entity ever seen — the
     index that keeps reconstructed ids equal to resident ids.  Flat ints
     and short strings: tiny next to a resident subgraph. *)
  b_ords : (Graph.key, int) Hashtbl.t;
  mutable b_next_ord : int;
  b_procs : (int, pinfo) Hashtbl.t;  (* by pid *)
  mutable b_roots : int;  (* boot-order index for parentless processes *)
  b_pname : (int, string) Hashtbl.t;  (* proc ord -> last emitted name *)
  b_fver : (int, int * int) Hashtbl.t;  (* file ord -> version range *)
  (* quiescence tracking: which live pids still hold each flow open *)
  b_touch : (int, int list ref) Hashtbl.t;  (* flow ord -> live toucher pids *)
  b_pid_flows : (int, int list ref) Hashtbl.t;  (* pid -> flow ords touched *)
  b_pid_owned : (int, int list ref) Hashtbl.t;
      (* pid -> module/region ords created while the process lived; they
         quiesce with it *)
  b_exited : (int, unit) Hashtbl.t;  (* pids that exited *)
  b_retired : (int, unit) Hashtbl.t;  (* ords already retired *)
}

let create ?metrics ?(resident = true) ?consumer ~sample () =
  let reg name =
    Option.map (fun m -> Faros_obs.Metrics.counter m name) metrics
  in
  let graph =
    if resident then Some (Graph.create ?metrics ~sample ()) else None
  in
  {
    b_graph = graph;
    b_resident = Option.map Delta.resident graph;
    b_consumer = consumer;
    c_events = reg "graph.os_events";
    c_flags = reg "graph.flag_sites";
    b_kernel = None;
    b_store = None;
    b_profile = Faros_obs.Profile.disabled;
    b_ords = Hashtbl.create 256;
    b_next_ord = 0;
    b_procs = Hashtbl.create 64;
    b_roots = 0;
    b_pname = Hashtbl.create 64;
    b_fver = Hashtbl.create 64;
    b_touch = Hashtbl.create 64;
    b_pid_flows = Hashtbl.create 64;
    b_pid_owned = Hashtbl.create 64;
    b_exited = Hashtbl.create 64;
    b_retired = Hashtbl.create 64;
  }

let graph t =
  match t.b_graph with
  | Some g -> g
  | None -> invalid_arg "Build.graph: builder created with ~resident:false"

let emit t delta =
  (match t.b_resident with Some r -> Delta.apply r delta | None -> ());
  match t.b_consumer with Some f -> f delta | None -> ()

(* One interaction: a single observation in the coalesced edge shape. *)
let edge t ?(bytes = 0) ~tick src dst kind =
  emit t
    (Delta.D_edge { src; dst; kind; tick; last_tick = tick; count = 1; bytes })

let kernel_exn t =
  match t.b_kernel with
  | Some k -> k
  | None -> invalid_arg "Build: plugin not attached yet"

(* -- stable identities ---------------------------------------------------- *)

(* FNV-1a over the image name: the stand-in for an image content hash
   (images are deterministic per name in this guest). *)
let hash8 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  Printf.sprintf "%08x" !h

(* Flows separated by enough ticks are different conversations even when
   the 4-tuple recurs; one bucket covers any single trace's schedule. *)
let ident_window = 1 lsl 20

let rec lineage t pid =
  match Hashtbl.find_opt t.b_procs pid with
  | Some pi -> (
    let self = Printf.sprintf "%s:%d" pi.pi_name pi.pi_index in
    match pi.pi_parent with
    | Some pp -> lineage t pp ^ ">" ^ self
    | None -> self)
  | None ->
    (* referenced before (or without) a Proc_created: fall back to the
       deterministic pid *)
    Printf.sprintf "%s#%d"
      (match t.b_kernel with
      | Some k -> Faros_os.Kstate.proc_name k pid
      | None -> "?")
      pid

let proc_ident t pid ~name = Printf.sprintf "proc|%s|%s" (hash8 name) (lineage t pid)

let flow_ident (f : Graph.flow) ~tick =
  Printf.sprintf "flow|%s:%d->%s:%d|w%d"
    (Faros_os.Types.Ip.to_string f.src_ip)
    f.src_port
    (Faros_os.Types.Ip.to_string f.dst_ip)
    f.dst_port (tick / ident_window)

let module_ident t ~pid ~image ~base =
  if pid = 0 then Printf.sprintf "module|%s|kernel" image
  else Printf.sprintf "module|%s@0x%08X|%s" image base (lineage t pid)

let region_ident t ~pid ~vaddr =
  Printf.sprintf "region|%s|0x%08X" (lineage t pid) vaddr

let flag_ident ~process ~pc = Printf.sprintf "flag|%s|0x%08X" process pc
let file_ident name = "file|" ^ name

(* -- interning ------------------------------------------------------------ *)

let fresh t key =
  let o = t.b_next_ord in
  t.b_next_ord <- o + 1;
  Hashtbl.replace t.b_ords key o;
  o

let proc_ord ?name t pid =
  let name =
    match name with
    | Some n -> n
    | None -> Faros_os.Kstate.proc_name (kernel_exn t) pid
  in
  match Hashtbl.find_opt t.b_ords (Graph.K_proc pid) with
  | Some o ->
    (* a pid referenced before its name was known picks it up once *)
    (match Hashtbl.find_opt t.b_pname o with
    | Some "?" when name <> "?" ->
      Hashtbl.replace t.b_pname o name;
      emit t (Delta.D_name { ord = o; name })
    | _ -> ());
    o
  | None ->
    let ident = proc_ident t pid ~name in
    let o = fresh t (Graph.K_proc pid) in
    Hashtbl.replace t.b_pname o name;
    emit t (Delta.D_node { ord = o; ident; seed = Delta.S_proc { pid; name } });
    o

let flow_ord t flow ~tick =
  match Hashtbl.find_opt t.b_ords (Graph.K_flow flow) with
  | Some o -> o
  | None ->
    let o = fresh t (Graph.K_flow flow) in
    emit t
      (Delta.D_node
         { ord = o; ident = flow_ident flow ~tick; seed = Delta.S_flow flow });
    o

let file_ord t ~name ~version =
  match Hashtbl.find_opt t.b_ords (Graph.K_file name) with
  | Some o ->
    let lo, hi = try Hashtbl.find t.b_fver o with Not_found -> (version, version) in
    if version < lo || version > hi then begin
      Hashtbl.replace t.b_fver o (min version lo, max version hi);
      emit t (Delta.D_version { ord = o; version })
    end;
    o
  | None ->
    let o = fresh t (Graph.K_file name) in
    Hashtbl.replace t.b_fver o (version, version);
    emit t
      (Delta.D_node
         {
           ord = o;
           ident = file_ident name;
           seed = Delta.S_file { name; version };
         });
    o

(* Modules and regions belong to their process: remember them while the
   process lives so they can quiesce with it.  (Ones first seen after the
   exit — offline enrichment — stay live until [close] drains them.) *)
let own t pid o =
  if pid <> 0 && not (Hashtbl.mem t.b_exited pid) then begin
    let owned =
      match Hashtbl.find_opt t.b_pid_owned pid with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.b_pid_owned pid l;
        l
    in
    owned := o :: !owned
  end

let module_ord t ~pid ~image ~base =
  match Hashtbl.find_opt t.b_ords (Graph.K_module (pid, image)) with
  | Some o -> o
  | None ->
    let ident = module_ident t ~pid ~image ~base in
    let o = fresh t (Graph.K_module (pid, image)) in
    emit t
      (Delta.D_node { ord = o; ident; seed = Delta.S_module { pid; image; base } });
    own t pid o;
    o

let region_ord t ~pid ~process ~vaddr ~len ~types =
  match Hashtbl.find_opt t.b_ords (Graph.K_region (pid, vaddr)) with
  | Some o -> o
  | None ->
    let ident = region_ident t ~pid ~vaddr in
    let o = fresh t (Graph.K_region (pid, vaddr)) in
    emit t
      (Delta.D_node
         {
           ord = o;
           ident;
           seed = Delta.S_region { pid; process; vaddr; len; types };
         });
    own t pid o;
    o

let flag_ord t ~process ~pc ~tick =
  match Hashtbl.find_opt t.b_ords (Graph.K_flag (process, pc)) with
  | Some o -> o
  | None ->
    let o = fresh t (Graph.K_flag (process, pc)) in
    emit t
      (Delta.D_node
         {
           ord = o;
           ident = flag_ident ~process ~pc;
           seed = Delta.S_flag { process; pc; tick };
         });
    o

(* The kernel export directory as a pseudo-module node: where
   export-table tags point. *)
let export_dir_node t =
  module_ord t ~pid:0 ~image:"kernel export directory"
    ~base:Faros_os.Export_table.export_dir_vaddr

(* -- quiescence / retirement ---------------------------------------------- *)

let retire t ord =
  if not (Hashtbl.mem t.b_retired ord) then begin
    Hashtbl.replace t.b_retired ord ();
    emit t (Delta.D_retire { ord })
  end

let touch_flow t fo pid =
  if not (Hashtbl.mem t.b_exited pid) then begin
    let touchers =
      match Hashtbl.find_opt t.b_touch fo with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.b_touch fo l;
        l
    in
    if not (List.mem pid !touchers) then begin
      touchers := pid :: !touchers;
      let flows =
        match Hashtbl.find_opt t.b_pid_flows pid with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace t.b_pid_flows pid l;
          l
      in
      if not (List.mem fo !flows) then flows := fo :: !flows
    end
  end

let release_flow t fo pid =
  match Hashtbl.find_opt t.b_touch fo with
  | None -> ()
  | Some touchers ->
    touchers := List.filter (fun p -> p <> pid) !touchers;
    if !touchers = [] then begin
      Hashtbl.remove t.b_touch fo;
      retire t fo
    end

let on_proc_exit t pid =
  Hashtbl.replace t.b_exited pid ();
  (match Hashtbl.find_opt t.b_pid_flows pid with
  | Some flows ->
    List.iter (fun fo -> release_flow t fo pid) (List.rev !flows);
    Hashtbl.remove t.b_pid_flows pid
  | None -> ());
  (match Hashtbl.find_opt t.b_pid_owned pid with
  | Some owned ->
    List.iter (retire t) (List.rev !owned);
    Hashtbl.remove t.b_pid_owned pid
  | None -> ());
  match Hashtbl.find_opt t.b_ords (Graph.K_proc pid) with
  | Some o -> retire t o
  | None -> ()

(* -- online construction -------------------------------------------------- *)

(* Resolve one provenance tag to the ordinal standing for its payload. *)
let tag_source t ~tick (tag : Faros_dift.Tag.t) =
  match t.b_store with
  | None -> None
  | Some store -> (
    match tag with
    | Netflow i ->
      Option.map
        (fun f -> flow_ord t f ~tick)
        (Faros_dift.Tag_store.netflow_of store i)
    | Process i -> (
      match Faros_dift.Tag_store.cr3_of store i with
      | Some asid -> (
        match Faros_os.Kstate.proc_by_asid (kernel_exn t) asid with
        | Some p -> Some (proc_ord t p.Faros_os.Process.pid)
        | None -> None)
      | None -> None)
    | File i ->
      Option.map
        (fun (f : Faros_dift.Tag_store.file_id) ->
          file_ord t ~name:f.file_name ~version:f.file_version)
        (Faros_dift.Tag_store.file_of store i)
    | Export_table _ -> Some (export_dir_node t))

let record_os_event t (ev : Faros_os.Os_event.t) =
  Option.iter Faros_obs.Metrics.incr t.c_events;
  let tick = Faros_os.Kernel.tick (kernel_exn t) in
  let edge = edge t ~tick in
  match ev with
  | Proc_created { pid; name; parent; suspended; _ } ->
    (* register lineage before interning, so the child's stable identity
       names its creation chain *)
    if not (Hashtbl.mem t.b_procs pid) then begin
      let index =
        match parent with
        | Some pp -> (
          match Hashtbl.find_opt t.b_procs pp with
          | Some ppi ->
            let i = ppi.pi_children in
            ppi.pi_children <- i + 1;
            i
          | None -> 0)
        | None ->
          let i = t.b_roots in
          t.b_roots <- i + 1;
          i
      in
      Hashtbl.replace t.b_procs pid
        { pi_name = name; pi_parent = parent; pi_index = index; pi_children = 0 }
    end;
    let child = proc_ord ~name t pid in
    Option.iter
      (fun pp ->
        let parent = proc_ord t pp in
        edge parent child Graph.Spawned;
        if suspended then edge parent child Graph.Suspended)
      parent
  | Proc_exited { pid; code } ->
    emit t (Delta.D_exit { ord = proc_ord t pid; code });
    on_proc_exit t pid
  | Proc_suspended { pid; by } -> edge (proc_ord t by) (proc_ord t pid) Graph.Suspended
  | Proc_resumed { pid; by } -> edge (proc_ord t by) (proc_ord t pid) Graph.Resumed
  | Proc_unmapped { pid; by; _ } ->
    (* unmapping someone else's image is the hollowing prelude *)
    if by <> pid then edge (proc_ord t by) (proc_ord t pid) Graph.Injected_into
  | Net_connect { pid; flow } ->
    let fo = flow_ord t flow ~tick in
    touch_flow t fo pid;
    edge (proc_ord t pid) fo Graph.Connected
  | Net_accept { pid; flow } ->
    (* accepted inbound connection: the flow reached the server process.
       Accepting is not a quiescence stake — a listener typically
       duplicates the handle into a worker and never moves payload
       itself, so only data movement (recv/send) registers a toucher;
       otherwise every flow stays pinned until the listener exits *)
    let fo = flow_ord t flow ~tick in
    edge fo (proc_ord t pid) Graph.Connected
  | Net_recv { pid; flow; dst } ->
    let fo = flow_ord t flow ~tick in
    touch_flow t fo pid;
    edge ~bytes:(Faros_vm.Extent.total dst) fo (proc_ord t pid) Graph.Received
  | Net_send { pid; flow; src } ->
    let fo = flow_ord t flow ~tick in
    touch_flow t fo pid;
    edge ~bytes:(Faros_vm.Extent.total src) (proc_ord t pid) fo Graph.Sent
  | Net_closed { pid; flow } -> (
    (* no resident change — just the quiescence signal *)
    match Hashtbl.find_opt t.b_ords (Graph.K_flow flow) with
    | Some fo -> release_flow t fo pid
    | None -> ())
  | File_read { pid; path; version; dst; _ } ->
    edge
      ~bytes:(Faros_vm.Extent.total dst)
      (file_ord t ~name:path ~version)
      (proc_ord t pid) Graph.Read
  | File_write { pid; path; version; src; _ } ->
    edge
      ~bytes:(Faros_vm.Extent.total src)
      (proc_ord t pid)
      (file_ord t ~name:path ~version)
      Graph.Wrote
  | Mem_copy { by; src_pid; dst_pid; dst; _ } ->
    (* only cross-process copies are graph-worthy; the writer is the
       injector, unless the writer is the destination reading someone
       else's memory, in which case data still flowed src -> dst *)
    let writer = if by <> dst_pid then by else src_pid in
    if writer <> dst_pid then
      edge
        ~bytes:(Faros_vm.Extent.total dst)
        (proc_ord t writer) (proc_ord t dst_pid) Graph.Injected_into
  | Mem_alloc { by; in_pid; _ } ->
    if by <> in_pid then edge (proc_ord t by) (proc_ord t in_pid) Graph.Injected_into
  | Module_loaded { pid; image; base } ->
    edge (proc_ord t pid) (module_ord t ~pid ~image ~base) Graph.Mapped
  | Context_set { pid; by; _ } ->
    if by <> pid then edge (proc_ord t by) (proc_ord t pid) Graph.Injected_into
  | Sys_enter _ | Sys_exit _ | File_opened _ | File_deleted _ | Popup _
  | Debug_print _ | Key_read _ | Audio_read _ | Screenshot _ ->
    ()

(* Online construction nests under [kernel.syscall] (events arrive from
   dispatch): [graph.build] is what forensics adds to each syscall. *)
let on_os_event t ev =
  Faros_obs.Profile.enter t.b_profile "graph.build";
  record_os_event t ev;
  Faros_obs.Profile.exit t.b_profile

let on_flag t (flag : Core.Report.flag) =
  if not flag.f_whitelisted then begin
    let fnode = flag_ord t ~process:flag.f_process ~pc:flag.f_pc ~tick:flag.f_tick in
    Option.iter Faros_obs.Metrics.incr t.c_flags;
    let tick = flag.f_tick in
    (match Faros_os.Kstate.proc_by_asid (kernel_exn t) flag.f_asid with
    | Some p -> edge t ~tick (proc_ord t p.Faros_os.Process.pid) fnode Graph.Flagged
    | None -> ());
    (* oldest tag first, so origin nodes intern before intermediaries *)
    List.iter
      (fun tag ->
        match tag_source t ~tick tag with
        | Some src when src <> fnode -> edge t ~tick src fnode Graph.Tainted_by
        | _ -> ())
      (List.rev (Faros_dift.Provenance.to_list flag.f_instr_prov))
  end

let plugin t ~kernel ~(faros : Core.Faros_plugin.t) =
  t.b_kernel <- Some kernel;
  t.b_store <- Some faros.engine.store;
  t.b_profile <- faros.profile;
  Core.Detector.add_flag_observer faros.detector (on_flag t);
  Faros_replay.Plugin.make ~on_os_event:(on_os_event t) "attack-graph"

let enrich_walk t (faros : Core.Faros_plugin.t) =
  if t.b_kernel = None then t.b_kernel <- Some faros.kernel;
  if t.b_store = None then t.b_store <- Some faros.engine.store;
  let kernel = kernel_exn t in
  let tick = Faros_os.Kernel.tick kernel in
  List.iter
    (fun (p : Faros_os.Process.t) ->
      let regions = Core.Prov_query.regions_of_process faros p in
      let pn = proc_ord t p.pid in
      let tainted, netflow = Core.Prov_query.totals regions in
      emit t (Delta.D_taint { ord = pn; tainted; netflow });
      let ords =
        List.map
          (fun (r : Core.Prov_query.region_taint) ->
            let rn =
              region_ord t ~pid:r.rt_pid ~process:r.rt_process ~vaddr:r.rt_vaddr
                ~len:r.rt_len
                ~types:(List.map Core.Prov_query.ty_name r.rt_types)
            in
            List.iter
              (fun tag ->
                match tag_source t ~tick tag with
                | Some src when src <> rn -> edge t ~tick src rn Graph.Tainted_by
                | _ -> ())
              (List.rev (Faros_dift.Provenance.to_list r.rt_sample));
            rn)
          regions
      in
      (* an exited process's enrichment is final the moment its walk
         ends: quiesce its regions so the live set stays O(live procs) *)
      if Hashtbl.mem t.b_exited p.pid then List.iter (retire t) ords)
    (Faros_os.Kstate.processes kernel)

(* Offline enrichment walks every process's mapped pages (one page-table
   and one shadow probe per page, plus a slot scan of the shadow pages
   that carry taint): one top-level-ish [graph.enrich] span (it runs after
   the replay, outside [kernel.*]). *)
let enrich t (faros : Core.Faros_plugin.t) =
  Faros_obs.Profile.with_span t.b_profile "graph.enrich" (fun () ->
      enrich_walk t faros)

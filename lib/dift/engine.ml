(* The whole-system DIFT engine.

   Consumes CPU execution effects (per-instruction) and kernel events
   (per-syscall) and maintains shadow state according to the active
   {!Policy}.  Three responsibilities:

   - tag insertion: netflow tags on received packets, file tags on file I/O
     (including image loads), process tags whenever a process touches an
     already-tainted byte — *including instruction fetch*, which is how a
     victim process's tag ends up on injected code;
   - tag propagation: Table I's copy/union/delete per instruction, plus the
     policy-controlled indirect flows (address and control dependencies);
   - observation: load observers receive, for every executed load, the
     provenance of the instruction's own code bytes and of the data it
     read — the exact inputs of FAROS's flagging rule. *)

type load_info = {
  li_asid : int;
  li_pc : int;
  li_instr : Faros_vm.Isa.t;
  li_instr_prov : Provenance.t;
  li_read_vaddr : int;
  li_read_paddr : int;
  li_read_prov : Provenance.t;
}

type t = {
  shadow : Shadow.t;
  store : Tag_store.t;
  interner : Prov_intern.store;  (* the interner this engine's state lives in *)
  policy : Policy.t;
  file_shadow : (string, Provenance.t array ref) Hashtbl.t;
  control : (int, int * Provenance.t) Hashtbl.t;  (* asid -> window left, prov *)
  load_observers : (load_info -> unit) Queue.t;  (* invoked in registration order *)
  metrics : Faros_obs.Metrics.t;
  sink : Faros_obs.Sink.t;
  profile : Faros_obs.Profile.t;  (* span profiler; shared with the kernel *)
  c_instrs : Faros_obs.Metrics.counter;
  c_os_events : Faros_obs.Metrics.counter;
  c_netflow_inserts : Faros_obs.Metrics.counter;
  c_file_inserts : Faros_obs.Metrics.counter;
  c_export_inserts : Faros_obs.Metrics.counter;
}

let create ?(policy = Policy.faros_default) ?(metrics = Faros_obs.Metrics.create ())
    ?(sink = Faros_obs.Sink.null) ?(profile = Faros_obs.Profile.disabled) () =
  let shadow = Shadow.create ~sink () in
  {
    shadow;
    store = Tag_store.create ();
    interner = Shadow.interner shadow;
    policy;
    file_shadow = Hashtbl.create 16;
    control = Hashtbl.create 8;
    load_observers = Queue.create ();
    metrics;
    sink;
    profile;
    c_instrs = Faros_obs.Metrics.counter metrics "engine.instrs";
    c_os_events = Faros_obs.Metrics.counter metrics "engine.os_events";
    c_netflow_inserts =
      Faros_obs.Metrics.counter metrics "engine.tag_inserts.netflow";
    c_file_inserts = Faros_obs.Metrics.counter metrics "engine.tag_inserts.file";
    c_export_inserts =
      Faros_obs.Metrics.counter metrics "engine.tag_inserts.export";
  }

(* O(1) registration; a Queue iterates in insertion order, preserving the
   callback order the old append-based list gave. *)
let add_load_observer t f = Queue.add f t.load_observers

(* Process-tag insertion: a byte a process touches records that process at
   the head of its provenance list — but only bytes already involved with
   taint, per Fig. 5. Returns the byte's (possibly updated) provenance. *)
let touch_byte t ~ptag paddr =
  let p = Shadow.get_mem t.shadow paddr in
  if Provenance.is_empty p then p
  else begin
    let p' = Provenance.prepend (Lazy.force ptag) p in
    Shadow.set_mem t.shadow paddr p';
    p'
  end

let touch_range t ~ptag paddr width =
  let rec go i acc =
    if i >= width then acc
    else go (i + 1) (Provenance.union acc (touch_byte t ~ptag (paddr + i)))
  in
  go 0 Provenance.empty

(* Provenance contributed by the registers an effective address uses, when
   the policy propagates address dependencies. *)
let address_dep_prov t ~asid ~width (a : Faros_vm.Isa.addr) =
  if not (Policy.address_dep_applies t.policy ~width) then Provenance.empty
  else
    let reg_prov = function
      | Some r -> Shadow.get_reg t.shadow ~asid r
      | None -> Provenance.empty
    in
    Provenance.union (reg_prov a.base) (reg_prov a.index)

(* Control-dependency window: provenance that taints all writes while a
   tainted conditional's influence lasts. *)
let control_prov t ~asid =
  if not t.policy.control_deps then Provenance.empty
  else
    match Hashtbl.find_opt t.control asid with
    | Some (n, prov) when n > 0 -> prov
    | Some _ | None -> Provenance.empty

let tick_control t ~asid =
  if t.policy.control_deps then
    match Hashtbl.find_opt t.control asid with
    | Some (n, prov) when n > 1 -> Hashtbl.replace t.control asid (n - 1, prov)
    | Some _ -> Hashtbl.remove t.control asid
    | None -> ()

let open_control_window t ~asid prov =
  if t.policy.control_deps && not (Provenance.is_empty prov) then begin
    (* Taint-creation event the shadow tables cannot see: while the window
       is open every write in this asid picks up [prov], so cached
       "nothing tainted in reach" fast-path verdicts are now stale. *)
    Shadow.bump_generation t.shadow;
    Hashtbl.replace t.control asid (t.policy.control_dep_window, prov)
  end

let control_active t ~asid = t.policy.control_deps && Hashtbl.mem t.control asid

(* -- per-instruction propagation -- *)

let on_exec t (_cpu : Faros_vm.Cpu.t) (eff : Faros_vm.Cpu.effect) =
  Faros_obs.Metrics.incr t.c_instrs;
  let asid = eff.e_asid in
  let ptag = lazy (Tag_store.process t.store asid) in
  tick_control t ~asid;
  let cdep = control_prov t ~asid in
  let adjust prov = Provenance.union prov cdep in
  (* Instruction fetch is a memory access by this process. *)
  let instr_prov =
    Array.fold_left
      (fun acc paddr -> Provenance.union acc (touch_byte t ~ptag paddr))
      Provenance.empty eff.e_code_paddrs
  in
  let get_reg r = Shadow.get_reg t.shadow ~asid r in
  let set_reg r prov = Shadow.set_reg t.shadow ~asid r (adjust prov) in
  let set_mem_access (acc : Faros_vm.Cpu.mem_access) prov =
    let prov = adjust prov in
    let final =
      if Provenance.is_empty prov then prov
      else Provenance.prepend (Lazy.force ptag) prov
    in
    Shadow.set_mem_range t.shadow acc.paddr acc.width final
  in
  let imm_prov = if t.policy.taint_immediates then instr_prov else Provenance.empty in
  let notify_load (acc : Faros_vm.Cpu.mem_access) prov =
    if not (Queue.is_empty t.load_observers) then begin
      let info =
        {
          li_asid = asid;
          li_pc = eff.e_pc;
          li_instr = eff.e_instr;
          li_instr_prov = instr_prov;
          li_read_vaddr = acc.vaddr;
          li_read_paddr = acc.paddr;
          li_read_prov = prov;
        }
      in
      Queue.iter (fun f -> f info) t.load_observers
    end
  in
  match eff.e_instr with
  | Nop | Halt | Syscall | Int3 | Jmp _ | Jmp_r _ -> ()
  | Mov_ri (r, _) -> set_reg r imm_prov
  | Mov_rr (a, b) -> set_reg a (get_reg b)
  | Load (w, r, a) -> (
    match eff.e_loads with
    | acc :: _ ->
      let data_prov = touch_range t ~ptag acc.paddr acc.width in
      notify_load acc data_prov;
      set_reg r (Provenance.union data_prov (address_dep_prov t ~asid ~width:w a))
    | [] -> ())
  | Store (w, a, r) -> (
    match eff.e_stores with
    | acc :: _ ->
      let prov =
        Provenance.union (get_reg r) (address_dep_prov t ~asid ~width:w a)
      in
      set_mem_access acc prov
    | [] -> ())
  | Lea (r, a) ->
    let reg_prov = function Some x -> get_reg x | None -> Provenance.empty in
    set_reg r (Provenance.union (reg_prov a.base) (reg_prov a.index))
  | Push r -> (
    match eff.e_stores with
    | acc :: _ -> set_mem_access acc (get_reg r)
    | [] -> ())
  | Pop r -> (
    match eff.e_loads with
    | acc :: _ ->
      let prov = touch_range t ~ptag acc.paddr acc.width in
      notify_load acc prov;
      set_reg r prov
    | [] -> ())
  | Add_rr (a, b) | Sub_rr (a, b) | Mul_rr (a, b) | And_rr (a, b) | Or_rr (a, b)
  | Shl_rr (a, b) | Shr_rr (a, b) ->
    set_reg a (Provenance.union (get_reg a) (get_reg b))
  | Xor_rr (a, b) ->
    (* xor r, r zeroes the value: Table I's delete. *)
    if a = b then set_reg a Provenance.empty
    else set_reg a (Provenance.union (get_reg a) (get_reg b))
  | Add_ri (a, _) | Sub_ri (a, _) | And_ri (a, _) | Or_ri (a, _) | Xor_ri (a, _)
  | Shl_ri (a, _) | Shr_ri (a, _) ->
    set_reg a (Provenance.union (get_reg a) imm_prov)
  | Not_r _ -> ()
  | Cmp_rr (a, b) | Test_rr (a, b) ->
    if t.policy.control_deps then
      Shadow.set_flags t.shadow ~asid (Provenance.union (get_reg a) (get_reg b))
  | Cmp_ri (a, _) ->
    if t.policy.control_deps then
      Shadow.set_flags t.shadow ~asid (Provenance.union (get_reg a) imm_prov)
  | Jz _ | Jnz _ | Jl _ | Jge _ | Jg _ | Jle _ ->
    open_control_window t ~asid (Shadow.get_flags t.shadow ~asid)
  | Call _ | Call_r _ -> (
    (* The pushed return address derives from the PC, not from data. *)
    match eff.e_stores with
    | acc :: _ -> Shadow.set_mem_range t.shadow acc.paddr acc.width Provenance.empty
    | [] -> ())
  | Ret -> ()

(* -- fast-path support -- *)

(* An instruction the fast path proved propagation-free still counts as
   processed: downstream accounting (and the pinned `faros stats`
   goldens) see the same engine.instrs either way. *)
let note_skipped t = Faros_obs.Metrics.incr t.c_instrs

(* A skipped load still reaches the observers — the detector counts every
   executed load.  The skip preconditions guarantee the data read was
   untainted (so [li_read_prov] is the empty the slow path would have
   computed) and that [instr_prov] — empty for a code-clean block, the
   cached converged fetch provenance otherwise — is exactly the slow
   path's [li_instr_prov], so observation stays byte-identical. *)
let notify_skipped_load t ~instr_prov (eff : Faros_vm.Cpu.effect) =
  match eff.e_instr with
  | Load _ | Pop _ -> (
    match eff.e_loads with
    | acc :: _ ->
      if not (Queue.is_empty t.load_observers) then begin
        let info =
          {
            li_asid = eff.e_asid;
            li_pc = eff.e_pc;
            li_instr = eff.e_instr;
            li_instr_prov = instr_prov;
            li_read_vaddr = acc.vaddr;
            li_read_paddr = acc.paddr;
            li_read_prov = Provenance.empty;
          }
        in
        Queue.iter (fun f -> f info) t.load_observers
      end
    | [] -> ())
  | _ -> ()

(* -- kernel-event handling: tag insertion and host-side copies -- *)

(* A file's shadow: one provenance slot per byte, created by the first
   write.  A file never written reads as untainted. *)
let file_array t path len_hint =
  let arr =
    match Hashtbl.find_opt t.file_shadow path with
    | Some a -> a
    | None ->
      let a = ref (Array.make (max len_hint 16) Provenance.empty) in
      Hashtbl.replace t.file_shadow path a;
      a
  in
  if Array.length !arr < len_hint then begin
    let grown = Array.make (max len_hint (2 * Array.length !arr)) Provenance.empty in
    Array.blit !arr 0 grown 0 (Array.length !arr);
    arr := grown
  end;
  arr

(* Callers check [Sink.enabled] first, so a disabled sink costs one branch
   and none of the argument building. *)
let trace_tag_insert t ~pid ~ty ~subject extents =
  Faros_obs.Sink.trace_event t.sink ~cat:"engine" ~name:"tag_insert" ~pid
    [
      ("type", Str ty);
      ("subject", Str subject);
      ("bytes", Int (Faros_vm.Extent.total extents));
    ]

(* The file-tag step of a file read or write: prepend the file tag when the
   policy tracks files, pass provenance through unchanged otherwise. *)
let file_tagger t ~pid ~path ~version extents =
  if t.policy.track_files then begin
    Faros_obs.Metrics.incr t.c_file_inserts;
    if Faros_obs.Sink.enabled t.sink then
      trace_tag_insert t ~pid ~ty:"file" ~subject:path extents;
    Provenance.prepend (Tag_store.file t.store ~name:path ~version)
  end
  else Fun.id

(* Land file bytes [offset ..] at [dst]: each run of one interned
   provenance in the file's shadow costs one [tag_it] and one range write.
   Slots past the shadow's end read as empty. *)
let read_file_runs t ~tag_it arr ~offset dst =
  let src_at i = if i < Array.length arr then arr.(i) else Provenance.empty in
  let pos = ref offset in
  List.iter
    (fun (e : Faros_vm.Extent.t) ->
      let stop = !pos + e.len in
      let i = ref !pos in
      while !i < stop do
        let p = src_at !i in
        let j = ref (!i + 1) in
        while !j < stop && Provenance.equal (src_at !j) p do
          incr j
        done;
        Shadow.set_mem_range t.shadow (e.paddr + (!i - !pos)) (!j - !i) (tag_it p);
        i := !j
      done;
      pos := stop)
    dst

(* [resolve_asid] maps a pid to its CR3; provided by the embedding analysis
   (the kernel knows, the engine must not depend on it). *)
let handle_os_event t ~resolve_asid (ev : Faros_os.Os_event.t) =
  Faros_obs.Metrics.incr t.c_os_events;
  match ev with
  | Net_recv { pid; flow; dst } ->
    (* Fresh network data overwrites whatever was there. *)
    Faros_obs.Metrics.incr t.c_netflow_inserts;
    if Faros_obs.Sink.enabled t.sink then
      trace_tag_insert t ~pid ~ty:"netflow"
        ~subject:(Fmt.str "%a" Faros_os.Types.pp_flow flow)
        dst;
    let prov = Provenance.singleton (Tag_store.netflow t.store flow) in
    List.iter
      (fun (e : Faros_vm.Extent.t) -> Shadow.set_mem_range t.shadow e.paddr e.len prov)
      dst
  | File_read { pid; path; version; offset; dst } -> (
    (* Provenance flows through the file's shadow in any policy; the file
       tag itself is only inserted when the policy tracks files. *)
    let tag_it = file_tagger t ~pid ~path ~version dst in
    match Hashtbl.find_opt t.file_shadow path with
    | None ->
      (* Never written (every image load): the whole read is one run. *)
      let prov = tag_it Provenance.empty in
      List.iter
        (fun (e : Faros_vm.Extent.t) ->
          Shadow.set_mem_range t.shadow e.paddr e.len prov)
        dst
    | Some arr -> read_file_runs t ~tag_it !arr ~offset dst)
  | File_write { pid; path; version; offset; src } ->
    let tag_it = file_tagger t ~pid ~path ~version src in
    let arr = file_array t path (offset + Faros_vm.Extent.total src) in
    let pos = ref offset in
    Faros_vm.Extent.iter
      (fun paddr ->
        let p = tag_it (Shadow.get_mem t.shadow paddr) in
        !arr.(!pos) <- p;
        incr pos;
        Shadow.set_mem t.shadow paddr p)
      src
  | Mem_copy { by; src; dst; _ } ->
    let ptag =
      match resolve_asid by with
      | Some asid -> Some (Tag_store.process t.store asid)
      | None -> None
    in
    Faros_vm.Extent.iter2
      (fun src dst ->
        let p = Shadow.get_mem t.shadow src in
        if Provenance.is_empty p then Shadow.set_mem t.shadow dst Provenance.empty
        else begin
          let p' =
            match ptag with Some tag -> Provenance.prepend tag p | None -> p
          in
          Shadow.set_mem t.shadow src p';
          Shadow.set_mem t.shadow dst p'
        end)
      src dst
  | File_deleted { path; _ } -> Hashtbl.remove t.file_shadow path
  | Proc_created _ | Proc_exited _ | Proc_suspended _ | Proc_resumed _
  | Proc_unmapped _ | Sys_enter _ | Sys_exit _ | File_opened _ | Net_connect _
  | Net_accept _ | Net_send _ | Net_closed _ | Mem_alloc _ | Module_loaded _
  | Context_set _
  | Popup _ | Debug_print _ | Key_read _ | Audio_read _ | Screenshot _ ->
    ()

(* Tag insertion nests under [kernel.syscall] (kernel dispatch emits the
   event while its span is open), so the tree separates syscall handling
   proper from the DIFT work it triggers. *)
let on_os_event t ~resolve_asid ev =
  Faros_obs.Profile.enter t.profile "dift.os_event";
  handle_os_event t ~resolve_asid ev;
  Faros_obs.Profile.exit t.profile

(* Mark the kernel export directory's function pointers (taint insertion for
   the export-table tag; the paper scans loaded modules at startup).  Each
   pointer's tag carries the exported function's identity — the per-function
   information the paper lists as future work. *)
let taint_export_pointers t entries =
  List.iter
    (fun (name, extents) ->
      Faros_obs.Metrics.incr t.c_export_inserts;
      if Faros_obs.Sink.enabled t.sink then
        trace_tag_insert t ~pid:0 ~ty:"export" ~subject:name extents;
      let tag = Tag_store.export t.store ~name in
      Faros_vm.Extent.iter
        (fun paddr ->
          Shadow.set_mem t.shadow paddr
            (Provenance.prepend tag (Shadow.get_mem t.shadow paddr)))
        extents)
    entries

let instrs_processed t = Faros_obs.Metrics.counter_value t.c_instrs

(* Push the current sizes of the shadow and tag stores into registry
   gauges, so `faros stats` renders live state next to the counters. *)
let refresh_metrics t =
  let set name v = Faros_obs.Metrics.set (Faros_obs.Metrics.gauge t.metrics name) v in
  set "shadow.tainted_bytes" (Shadow.tainted_bytes t.shadow);
  set "shadow.tainted_regs" (Shadow.tainted_regs t.shadow);
  set "shadow.pages" (Shadow.pages t.shadow);
  set "store.netflow_tags" (Tag_store.netflow_count t.store);
  set "store.process_tags" (Tag_store.process_count t.store);
  set "store.file_tags" (Tag_store.file_count t.store);
  set "store.export_tags" (Tag_store.export_count t.store);
  set "prov.interned" (Prov_intern.store_interned_count t.interner)

type stats = {
  instrs : int;
  tainted_bytes : int;
  netflow_tags : int;
  process_tags : int;
  file_tags : int;
}

let stats t =
  refresh_metrics t;
  {
    instrs = instrs_processed t;
    tainted_bytes = Shadow.tainted_bytes t.shadow;
    netflow_tags = Tag_store.netflow_count t.store;
    process_tags = Tag_store.process_count t.store;
    file_tags = Tag_store.file_count t.store;
  }

(* The kernel: syscall dispatch and the whole-system run loop.

   This is the miniature Windows 7 the analyses introspect.  Syscalls
   arriving through a kernel API stub are marked [via_stub] — those are the
   only calls a library-level monitor (the Cuckoo baseline) can see, while
   raw SYSCALLs from user code bypass it, as the paper's loaders do. *)

type t = Kstate.t

(* The guest's local IP is the victim address in the paper's figures. *)
let create () = Kstate.create ~local_ip:(Types.Ip.of_string "169.254.57.168")

let subscribe = Kstate.subscribe

(* Provision an executable image into the guest filesystem. *)
let install_image (k : t) ~path image = Fs.install k.fs path (Pe.serialize image)

let spawn (k : t) ?(suspended = false) ?parent path =
  Spawn.spawn k ~path ~suspended ~parent

let args_of (cpu : Faros_vm.Cpu.t) =
  [| cpu.regs.(1); cpu.regs.(2); cpu.regs.(3); cpu.regs.(4); cpu.regs.(5) |]

type handler = Kstate.t -> Process.t -> int array -> int

(* The syscall ABI: each served number, the name its events carry, and
   its handler.  Guest programs name the numbers through [Syscall]. *)
let syscalls : (int * string * handler) list =
  let open Syscall in
  [
    (nt_terminate_process, "NtTerminateProcess", Sys_proc.terminate);
    (nt_create_process, "NtCreateProcess", Sys_proc.create_process);
    (nt_suspend_process, "NtSuspendProcess", Sys_proc.suspend);
    (nt_resume_process, "NtResumeProcess", Sys_proc.resume);
    (nt_allocate_virtual_memory, "NtAllocateVirtualMemory", Sys_mem.allocate);
    (nt_write_virtual_memory, "NtWriteVirtualMemory", Sys_mem.write_virtual_memory);
    (nt_read_virtual_memory, "NtReadVirtualMemory", Sys_mem.read_virtual_memory);
    (nt_unmap_view_of_section, "NtUnmapViewOfSection", Sys_mem.unmap_view);
    (nt_get_context_thread, "NtGetContextThread", Sys_proc.get_context);
    (nt_set_context_thread, "NtSetContextThread", Sys_proc.set_context);
    (nt_query_information_process, "NtQueryInformationProcess", Sys_proc.query_information);
    (nt_get_current_pid, "NtGetCurrentPid", Sys_proc.get_current_pid);
    (nt_delay_execution, "NtDelayExecution", Sys_proc.delay);
    (nt_get_tick_count, "NtGetTickCount", Sys_proc.get_tick_count);
    (nt_yield_execution, "NtYieldExecution", Sys_proc.yield);
    (nt_create_file, "NtCreateFile", Sys_file.create_file);
    (nt_open_file, "NtOpenFile", Sys_file.open_file);
    (nt_read_file, "NtReadFile", Sys_file.read_file);
    (nt_write_file, "NtWriteFile", Sys_file.write_file);
    (nt_close, "NtClose", Sys_file.close);
    (nt_delete_file, "NtDeleteFile", Sys_file.delete_file);
    (nt_query_file_size, "NtQueryFileSize", Sys_file.query_size);
    (nt_set_file_position, "NtSetFilePosition", Sys_file.set_position);
    (nt_query_directory_file, "NtQueryDirectoryFile", Sys_file.query_directory);
    (nt_flush_buffers_file, "NtFlushBuffersFile", Sys_file.flush_buffers);
    (nt_query_attributes_file, "NtQueryAttributesFile", Sys_file.query_attributes);
    (sys_socket, "socket", Sys_net.socket);
    (sys_connect, "connect", Sys_net.connect);
    (sys_send, "send", Sys_net.send);
    (sys_recv, "recv", Sys_net.recv);
    (sys_bind, "bind", Sys_net.bind);
    (sys_listen, "listen", Sys_net.listen);
    (sys_accept, "accept", Sys_net.accept);
    (sys_poll, "poll", Sys_net.poll);
    (ldr_load_library, "LdrLoadLibrary", Sys_misc.load_library);
    (ldr_get_proc_address, "LdrGetProcAddress", Sys_misc.get_proc_address);
    (dev_key_read, "DevKeyRead", Sys_misc.key_read);
    (dev_audio_record, "DevAudioRecord", Sys_misc.audio_record);
    (dev_screenshot, "DevScreenshot", Sys_misc.screenshot);
    (dev_popup, "DevPopup", Sys_misc.popup);
    (dbg_print, "DbgPrint", Sys_misc.debug_print);
  ]

(* [syscalls] indexed by number. *)
let by_number =
  let top = List.fold_left (fun m (n, _, _) -> max m n) 0 syscalls in
  let table = Array.make (top + 1) None in
  List.iter (fun (n, name, handler) -> table.(n) <- Some (name, handler)) syscalls;
  table

(* r0 can hold any 32-bit value, hence the bounds check. *)
let lookup sysno =
  if sysno >= 0 && sysno < Array.length by_number then by_number.(sysno) else None

let syscall_name sysno =
  match lookup sysno with Some (name, _) -> name | None -> Printf.sprintf "sys_%#x" sysno

(* The [kernel.syscall] span covers Sys_enter/Sys_exit fan-out too, so
   everything OS-event subscribers do (DIFT tag insertion, graph
   building) nests inside it. *)
let dispatch (k : t) (p : Process.t) (eff : Faros_vm.Cpu.effect) =
  k.syscalls <- k.syscalls + 1;
  let prof = k.Kstate.profile in
  Faros_obs.Profile.enter prof "kernel.syscall";
  let cpu = p.cpu in
  let sysno = cpu.regs.(0) in
  let args = args_of cpu in
  let via_stub = Export_table.in_kernel eff.e_pc in
  let sysname = syscall_name sysno in
  Kstate.emit k (Os_event.Sys_enter { pid = p.pid; sysno; sysname; args; via_stub });
  if Faros_obs.Sink.enabled k.sink then
    Faros_obs.Sink.trace_event k.sink ~cat:"syscall" ~name:sysname ~pid:p.pid
      [ ("class", Str (Syscall.category sysno)); ("via_stub", Bool via_stub) ];
  let ret =
    match lookup sysno with
    | Some (_, f) -> (
      try f k p args
      with Faros_vm.Mmu.Page_fault _ | Kstate.Name_too_long -> -1 land Faros_vm.Word.mask)
    | None -> -1 land Faros_vm.Word.mask
  in
  Faros_vm.Cpu.set cpu Faros_vm.Isa.r0 ret;
  Kstate.emit k (Os_event.Sys_exit { pid = p.pid; sysno; ret });
  Faros_obs.Profile.exit prof

let terminate_on_fault (k : t) (p : Process.t) fault =
  p.fault <- Some fault;
  p.state <- Terminated;
  p.exit_code <- -1;
  Faros_vm.Machine.retire_asid k.machine p.space.asid;
  Kstate.emit k (Os_event.Proc_exited { pid = p.pid; code = -1 })

(* Run [p] for at most [budget] instructions. *)
let run_slice (k : t) (p : Process.t) ~budget =
  p.slice_budget <- budget;
  while p.slice_budget > 0 && p.state = Ready do
    p.slice_budget <- p.slice_budget - 1;
    match Faros_vm.Machine.step k.machine p.cpu with
    | Ok eff ->
      k.tick <- k.tick + 1;
      if eff.e_instr = Faros_vm.Isa.Syscall then dispatch k p eff
      else if p.cpu.halted then begin
        (* HALT terminates the process; r1 carries the exit code. *)
        p.state <- Terminated;
        p.exit_code <- p.cpu.regs.(1);
        Faros_vm.Machine.retire_asid k.machine p.space.asid;
        Kstate.emit k (Os_event.Proc_exited { pid = p.pid; code = p.exit_code })
      end
    | Error fault -> terminate_on_fault k p fault
  done

(* Run the whole system until every process has terminated (or is stuck
   suspended), or [max_ticks] instructions have executed.

   Scheduled inbound network events are pumped at slice boundaries: the
   delivery tick is the boundary tick, a pure function of the
   deterministic schedule, so record and replay deliver identically. *)
let run ?(max_ticks = 2_000_000) ?(timeslice = 200) (k : t) =
  let rec loop () =
    if k.tick < max_ticks then begin
      Netstack.pump k.net ~tick:k.tick;
      match Sched.next k with
      | None -> ()
      | Some p ->
        run_slice k p ~budget:(min timeslice (max_ticks - k.tick));
        loop ()
    end
  in
  loop ()

let tick (k : t) = k.tick

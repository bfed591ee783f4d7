(* The kernel: syscall dispatch and the whole-system run loop.

   This is the miniature Windows 7 the analyses introspect.  Syscalls
   arriving through a kernel API stub are marked [via_stub] — those are the
   only calls a library-level monitor (the Cuckoo baseline) can see, while
   raw SYSCALLs from user code bypass it, as the paper's loaders do. *)

type t = Kstate.t

let create ?(local_ip = Types.Ip.of_string "169.254.57.168") () =
  Kstate.create ~local_ip

let subscribe = Kstate.subscribe

(* Provision an executable image into the guest filesystem. *)
let install_image (k : t) ~path image = Fs.install k.fs path (Pe.serialize image)

let spawn (k : t) ?(suspended = false) ?parent path =
  Spawn.spawn k ~path ~suspended ~parent

let args_of (cpu : Faros_vm.Cpu.t) =
  [| cpu.regs.(1); cpu.regs.(2); cpu.regs.(3); cpu.regs.(4); cpu.regs.(5) |]

let handler sysno : (Kstate.t -> Process.t -> int array -> int) option =
  let open Syscall in
  if sysno = nt_terminate_process then Some Sys_proc.terminate
  else if sysno = nt_create_process then Some Sys_proc.create_process
  else if sysno = nt_suspend_process then Some Sys_proc.suspend
  else if sysno = nt_resume_process then Some Sys_proc.resume
  else if sysno = nt_allocate_virtual_memory then Some Sys_mem.allocate
  else if sysno = nt_write_virtual_memory then Some Sys_mem.write_virtual_memory
  else if sysno = nt_read_virtual_memory then Some Sys_mem.read_virtual_memory
  else if sysno = nt_unmap_view_of_section then Some Sys_mem.unmap_view
  else if sysno = nt_get_context_thread then Some Sys_proc.get_context
  else if sysno = nt_set_context_thread then Some Sys_proc.set_context
  else if sysno = nt_query_information_process then Some Sys_proc.query_information
  else if sysno = nt_get_current_pid then Some Sys_proc.get_current_pid
  else if sysno = nt_delay_execution then Some Sys_proc.delay
  else if sysno = nt_get_tick_count then Some Sys_proc.get_tick_count
  else if sysno = nt_yield_execution then Some Sys_proc.yield
  else if sysno = nt_create_file then Some Sys_file.create_file
  else if sysno = nt_open_file then Some Sys_file.open_file
  else if sysno = nt_read_file then Some Sys_file.read_file
  else if sysno = nt_write_file then Some Sys_file.write_file
  else if sysno = nt_close then Some Sys_file.close
  else if sysno = nt_delete_file then Some Sys_file.delete_file
  else if sysno = nt_query_file_size then Some Sys_file.query_size
  else if sysno = nt_set_file_position then Some Sys_file.set_position
  else if sysno = nt_query_directory_file then Some Sys_file.query_directory
  else if sysno = nt_flush_buffers_file then Some Sys_file.flush_buffers
  else if sysno = nt_query_attributes_file then Some Sys_file.query_attributes
  else if sysno = sys_socket then Some Sys_net.socket
  else if sysno = sys_connect then Some Sys_net.connect
  else if sysno = sys_send then Some Sys_net.send
  else if sysno = sys_recv then Some Sys_net.recv
  else if sysno = sys_bind then Some Sys_net.bind
  else if sysno = sys_listen then Some Sys_net.listen
  else if sysno = sys_accept then Some Sys_net.accept
  else if sysno = sys_poll then Some Sys_net.poll
  else if sysno = ldr_load_library then Some Sys_misc.load_library
  else if sysno = ldr_get_proc_address then Some Sys_misc.get_proc_address
  else if sysno = dev_key_read then Some Sys_misc.key_read
  else if sysno = dev_audio_record then Some Sys_misc.audio_record
  else if sysno = dev_screenshot then Some Sys_misc.screenshot
  else if sysno = dev_popup then Some Sys_misc.popup
  else if sysno = dbg_print then Some Sys_misc.debug_print
  else None

(* The [kernel.syscall] span covers Sys_enter/Sys_exit fan-out too, so
   everything OS-event subscribers do (DIFT tag insertion, graph
   building) nests inside it. *)
let dispatch (k : t) (p : Process.t) (eff : Faros_vm.Cpu.effect) =
  let prof = k.Kstate.profile in
  Faros_obs.Profile.enter prof "kernel.syscall";
  let cpu = p.cpu in
  let sysno = cpu.regs.(0) in
  let args = args_of cpu in
  let via_stub = Export_table.in_kernel eff.e_pc in
  Kstate.emit k
    (Os_event.Sys_enter
       { pid = p.pid; sysno; sysname = Syscall.name sysno; args; via_stub });
  if Faros_obs.Sink.enabled k.sink then
    Faros_obs.Sink.trace_event k.sink ~cat:"syscall"
      ~name:(Syscall.name sysno) ~pid:p.pid
      [ ("class", Str (Syscall.category sysno)); ("via_stub", Bool via_stub) ];
  let ret =
    match handler sysno with
    | Some f -> ( try f k p args with Faros_vm.Mmu.Page_fault _ -> -1 land Faros_vm.Word.mask)
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

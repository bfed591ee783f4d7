(* JIT workloads: the Table III false-positive study.

   JITs are legitimately injection-shaped: code arrives over the network
   and ends up executing after being linked against system libraries.  Two
   flavours are modelled, mirroring why the paper saw 2/10 applets flag and
   0/10 AJAX sites:

   - *Laundering JIT*: the generator translates downloaded bytes through a
     lookup table (an address dependency), so under FAROS's
     direct-flow-only policy the emitted code is untainted — no flag.
     All ten AJAX sites and eight of the applets compile this way.
   - *Native-stub applet*: two applets ship a native helper routine whose
     bytes are copied verbatim into the JVM's code cache (a direct copy),
     execute with network provenance, and resolve symbols by walking the
     export directory — FAROS flags them, and the analyst whitelists the
     JVM. *)

open Faros_vm

let web_ip = "93.184.216.34"
let web_port = 80

let identity_table = String.init 256 Char.chr

(* Emit one [mov r1, <byte>] from a laundered byte in r2 at emit pointer r6,
   plus loop bookkeeping over r4 (index) and r5 (length).  Shared by the
   browser's JS JIT and the JVM's bytecode JIT. *)
let gen_loop ~label ~src_ptr_setup =
  List.concat
    [
      [ Progs.movi Isa.r4 0; Progs.lbl (label ^ "_loop") ];
      [ Progs.i (Isa.Cmp_rr (Isa.r4, Isa.r5)); Asm.Jge_l (label ^ "_done") ];
      src_ptr_setup;
      (* launder: r2 <- table[r2] — the address dependency *)
      [
        Asm.Mov_label (Isa.r1, "xtable");
        Progs.i (Isa.Load (1, Isa.r2, Isa.indexed ~base:Isa.r1 ~scale:1 Isa.r2));
      ];
      (* emit: opcode, reg, imm byte, three zero bytes *)
      [
        Progs.movi Isa.r3 (Encode.opcode (Isa.Mov_ri (Isa.r1, 0)));
        Progs.i (Isa.Store (1, Isa.based Isa.r6, Isa.r3));
        Progs.movi Isa.r3 1;
        Progs.i (Isa.Store (1, Isa.based ~disp:1 Isa.r6, Isa.r3));
        Progs.i (Isa.Store (1, Isa.based ~disp:2 Isa.r6, Isa.r2));
        Progs.movi Isa.r3 0;
        Progs.i (Isa.Store (1, Isa.based ~disp:3 Isa.r6, Isa.r3));
        Progs.i (Isa.Store (1, Isa.based ~disp:4 Isa.r6, Isa.r3));
        Progs.i (Isa.Store (1, Isa.based ~disp:5 Isa.r6, Isa.r3));
        Progs.addi Isa.r6 6;
        Progs.addi Isa.r4 1;
        Asm.Jmp_l (label ^ "_loop");
      ];
      [ Progs.lbl (label ^ "_done") ];
      (* terminate the generated code with a ret *)
      [
        Progs.movi Isa.r3 (Encode.opcode Isa.Ret);
        Progs.i (Isa.Store (1, Isa.based Isa.r6, Isa.r3));
      ];
    ]

let call_cached =
  [
    Asm.Mov_label (Isa.r1, "slot_cache");
    Progs.i (Isa.Load (4, Isa.r1, Isa.based Isa.r1));
    Progs.i (Isa.Call_r Isa.r1);
  ]

(* The AJAX browser: fetches a script, JIT-compiles it (laundering), runs
   the generated code, then resolves a symbol through the benign
   GetProcAddress path. *)
let browser_ajax_image ~name ~request =
  let items =
    List.concat
      [
        [ Progs.lbl "start" ];
        Progs.connect_raw ~ip:web_ip ~port:web_port;
        [
          Progs.movr Isa.r1 Isa.r7;
          Progs.lea_label Isa.r2 "req";
          Progs.movi Isa.r3 (String.length request);
        ];
        Progs.syscall Faros_os.Syscall.sys_send;
        Progs.prefixed_recv ~sock_reg:Isa.r7 ~len_buf:"lenbuf" ~data_buf:"script"
          ~recv_sub:"recvx";
        [ Progs.movr Isa.r5 Isa.r3 ];
        (* code cache *)
        [ Progs.movi Isa.r1 0; Progs.movi Isa.r2 4096 ];
        Progs.syscall Faros_os.Syscall.nt_allocate_virtual_memory;
        [
          Asm.Mov_label (Isa.r6, "slot_cache");
          Progs.i (Isa.Store (4, Isa.based Isa.r6, Isa.r0));
          Progs.movr Isa.r6 Isa.r0;
        ];
        gen_loop ~label:"gen"
          ~src_ptr_setup:
            [
              Asm.Mov_label (Isa.r1, "script");
              Progs.i (Isa.Load (1, Isa.r2, Isa.indexed ~base:Isa.r1 ~scale:1 Isa.r4));
            ];
        call_cached;
        (* benign symbol resolution *)
        [ Progs.lea_label Isa.r1 "str_gtc"; Progs.movi Isa.r2 12 ];
        Progs.syscall Faros_os.Syscall.ldr_get_proc_address;
        [ Progs.i (Isa.Call_r Isa.r0) ];
        [ Progs.halt ];
        Progs.recv_exact_sub ~label:"recvx";
        Progs.cstring "req" request;
        [ Asm.Align 4 ];
        Progs.buffer "lenbuf" 4;
        Progs.buffer "script" 1024;
        Progs.cstring "xtable" identity_table;
        [ Asm.Align 4; Progs.lbl "slot_cache"; Asm.U32 0 ];
        Progs.cstring "str_gtc" "GetTickCount";
      ]
  in
  Faros_os.Pe.of_program ~name ~base:Faros_os.Process.image_base items

(* The applet browser: downloads the applet, spawns the JVM suspended,
   plants [len][applet] into its heap, resumes. *)
let browser_applet_image () =
  let java = "java.exe" in
  let items =
    List.concat
      [
        [ Progs.lbl "start" ];
        Progs.connect_raw ~ip:web_ip ~port:web_port;
        [
          Progs.movr Isa.r1 Isa.r7;
          Progs.lea_label Isa.r2 "req";
          Progs.movi Isa.r3 10;
        ];
        Progs.syscall Faros_os.Syscall.sys_send;
        Progs.prefixed_recv ~sock_reg:Isa.r7 ~len_buf:"lenbuf" ~data_buf:"applet"
          ~recv_sub:"recvx";
        [ Progs.movr Isa.r5 Isa.r3 ];
        (* child = CreateProcess("java.exe", suspended) *)
        [
          Progs.lea_label Isa.r1 "str_java";
          Progs.movi Isa.r2 (String.length java);
          Progs.movi Isa.r3 1;
        ];
        Progs.syscall Faros_os.Syscall.nt_create_process;
        [ Progs.movr Isa.r7 Isa.r0 ];
        (* plant [len][applet] at the child's heap base *)
        [ Progs.movr Isa.r1 Isa.r7; Progs.movr Isa.r2 Isa.r5; Progs.addi Isa.r2 4 ];
        Progs.syscall Faros_os.Syscall.nt_allocate_virtual_memory;
        [ Progs.movr Isa.r6 Isa.r0 ];
        [
          Progs.movr Isa.r1 Isa.r7;
          Progs.movr Isa.r2 Isa.r6;
          Asm.Mov_label (Isa.r3, "lenbuf");
          Progs.movi Isa.r4 4;
        ];
        Progs.syscall Faros_os.Syscall.nt_write_virtual_memory;
        [
          Progs.movr Isa.r1 Isa.r7;
          Progs.i (Isa.Lea (Isa.r2, Isa.based ~disp:4 Isa.r6));
          Asm.Mov_label (Isa.r3, "applet");
          Progs.movr Isa.r4 Isa.r5;
        ];
        Progs.syscall Faros_os.Syscall.nt_write_virtual_memory;
        [ Progs.movr Isa.r1 Isa.r7 ];
        Progs.syscall Faros_os.Syscall.nt_resume_process;
        [ Progs.halt ];
        Progs.recv_exact_sub ~label:"recvx";
        Progs.cstring "req" "GET applet";
        Progs.cstring "str_java" java;
        [ Asm.Align 4 ];
        Progs.buffer "lenbuf" 4;
        Progs.buffer "applet" 1024;
      ]
  in
  Faros_os.Pe.of_program ~name:"browser.exe" ~base:Faros_os.Process.image_base items

(* The JVM: reads the planted applet, then either JIT-compiles bytecode
   through the lookup table or memcpys a shipped native stub into the code
   cache — the applet's header byte selects, as real JVMs branch on whether
   a method has a native implementation. *)
let java_image () =
  let planted = Faros_os.Process.heap_base in
  let items =
    List.concat
      [
        [ Progs.lbl "start" ];
        (* code cache first, so register pressure stays manageable *)
        [ Progs.movi Isa.r1 0; Progs.movi Isa.r2 4096 ];
        Progs.syscall Faros_os.Syscall.nt_allocate_virtual_memory;
        [
          Asm.Mov_label (Isa.r6, "slot_cache");
          Progs.i (Isa.Store (4, Isa.based Isa.r6, Isa.r0));
        ];
        (* r5 = applet len - 1 (skip header); header in r3; body at planted+5 *)
        [
          Progs.movi Isa.r2 planted;
          Progs.i (Isa.Load (4, Isa.r5, Isa.based Isa.r2));
          Progs.i (Isa.Load (1, Isa.r3, Isa.based ~disp:4 Isa.r2));
          Progs.i (Isa.Sub_ri (Isa.r5, 1));
          Progs.movi Isa.r2 (planted + 5);
          Progs.i (Isa.Cmp_ri (Isa.r3, 1));
          Asm.Jz_l "template";
        ];
        (* bytecode path: laundering JIT *)
        [
          Asm.Mov_label (Isa.r6, "slot_cache");
          Progs.i (Isa.Load (4, Isa.r6, Isa.based Isa.r6));
        ];
        gen_loop ~label:"gen"
          ~src_ptr_setup:
            [
              Progs.movi Isa.r1 (planted + 5);
              Progs.i (Isa.Load (1, Isa.r2, Isa.indexed ~base:Isa.r1 ~scale:1 Isa.r4));
            ];
        call_cached;
        [ Asm.Jmp_l "after" ];
        (* native-stub path: template copy into the cache *)
        [ Progs.lbl "template" ];
        [
          Asm.Mov_label (Isa.r1, "slot_cache");
          Progs.i (Isa.Load (4, Isa.r1, Isa.based Isa.r1));
          Progs.movr Isa.r3 Isa.r5;
          Asm.Call_l "memcpy";
        ];
        call_cached;
        [ Progs.lbl "after" ];
        (* benign resolution: Sleep(1) through the kernel *)
        [ Progs.lea_label Isa.r1 "str_slp"; Progs.movi Isa.r2 5 ];
        Progs.syscall Faros_os.Syscall.ldr_get_proc_address;
        [ Progs.movr Isa.r6 Isa.r0; Progs.movi Isa.r1 1; Progs.i (Isa.Call_r Isa.r6) ];
        [ Progs.halt ];
        Progs.memcpy_sub ~label:"memcpy";
        Progs.cstring "xtable" identity_table;
        [ Asm.Align 4; Progs.lbl "slot_cache"; Asm.U32 0 ];
        Progs.cstring "str_slp" "Sleep";
      ]
  in
  Faros_os.Pe.of_program ~name:"java.exe" ~base:Faros_os.Process.image_base items

(* The JVM's cache lands at heap_base + 2 pages: the browser's plant
   consumed the first page plus its guard. *)
let java_cache_base = Faros_os.Process.heap_base + (2 * Faros_vm.Phys_mem.page_size)

let web_actor ~payload =
  {
    Faros_os.Netstack.actor_name = "webserver";
    actor_ip = Faros_os.Types.Ip.of_string web_ip;
    actor_port = web_port;
    on_connect = (fun _ -> []);
    on_data = (fun _flow _req -> [ Progs.frame payload ]);
  }

(* Deterministic pseudo-bytecode derived from the applet's name. *)
let bytecode_of ~name ~len =
  String.init len (fun k ->
      Char.chr ((Faros_os.Export_table.hash_name name + (k * 31)) land 0xFF))

let applet_scenario ~name ~native =
  let body =
    if native then Payloads.applet_native_stub ~origin:java_cache_base ()
    else bytecode_of ~name ~len:48
  in
  let applet = (if native then "\x01" else "\x00") ^ body in
  Scenario.make ("applet_" ^ name)
    ~images:[ ("browser.exe", browser_applet_image ()); ("java.exe", java_image ()) ]
    ~actors:[ web_actor ~payload:applet ]
    ~boot:[ "browser.exe" ]

let ajax_scenario ~site =
  let request = "GET " ^ site in
  let script = bytecode_of ~name:site ~len:64 in
  Scenario.make ("ajax_" ^ site)
    ~images:[ (site ^ ".exe", browser_ajax_image ~name:(site ^ ".exe") ~request) ]
    ~actors:[ web_actor ~payload:script ]
    ~boot:[ site ^ ".exe" ]

(* Table III's sample set; the two native-stub applets are the expected
   false positives. *)
let applets =
  [
    ("acceleration", false);
    ("equilibrium", false);
    ("pulleysystem", false);
    ("projectile", false);
    ("ncradle", true);
    ("keplerlaw1", false);
    ("inclplane", false);
    ("lever", false);
    ("keplerlaw2", false);
    ("collision", true);
  ]

let ajax_sites =
  [
    "gmail.com";
    "maps.google.com";
    "kayak.com";
    "netflix.com_top100";
    "kiko.com";
    "backpackit.com";
    "sudokucarving.com";
    "pressdisplay.com";
    "rpad.com";
    "brainking.com";
  ]

let samples () =
  List.map
    (fun (name, native) -> (("applet_" ^ name), `Applet, native, applet_scenario ~name ~native))
    applets
  @ List.map (fun site -> (("ajax_" ^ site), `Ajax, false, ajax_scenario ~site)) ajax_sites

(* Tests for the guest OS: filesystem, netstack, MiniPE, export tables,
   loader/spawn, syscalls and the kernel run loop. *)

open Faros_os

let check = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)

(* -- ip / flow ------------------------------------------------------------ *)

let ip_tests =
  [
    Alcotest.test_case "parse/print roundtrip" `Quick (fun () ->
        check_s "rt" "169.254.26.161"
          (Types.Ip.to_string (Types.Ip.of_string "169.254.26.161"));
        check "value" 0x7F000001 (Types.Ip.of_string "127.0.0.1"));
    Alcotest.test_case "rejects bad addresses" `Quick (fun () ->
        List.iter
          (fun s ->
            match Types.Ip.of_string s with
            | exception (Invalid_argument _ | Failure _) -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "-1.2.3.4"; "a.b.c.d" ]);
    Alcotest.test_case "flow renders like the paper" `Quick (fun () ->
        let f =
          {
            Types.src_ip = Types.Ip.of_string "169.254.26.161";
            src_port = 4444;
            dst_ip = Types.Ip.of_string "169.254.57.168";
            dst_port = 49162;
          }
        in
        check_s "render"
          "{src ip,port: 169.254.26.161:4444, dest ip.port: 169.254.57.168:49162}"
          (Fmt.str "%a" Types.pp_flow f));
  ]

(* -- filesystem ----------------------------------------------------------- *)

let fs_tests =
  [
    Alcotest.test_case "create, write, read" `Quick (fun () ->
        let fs = Fs.create () in
        let f = Fs.create_file fs "a.txt" in
        Fs.write f ~offset:0 (Bytes.of_string "hello");
        check_s "read" "hello" (Fs.read_all fs "a.txt"));
    Alcotest.test_case "write extends with zero fill" `Quick (fun () ->
        let fs = Fs.create () in
        let f = Fs.create_file fs "a" in
        Fs.write f ~offset:3 (Bytes.of_string "x");
        check "size" 4 (Fs.size fs "a");
        check_s "content" "\000\000\000x" (Fs.read_all fs "a"));
    Alcotest.test_case "version counts accesses" `Quick (fun () ->
        let fs = Fs.create () in
        ignore (Fs.create_file fs "a");
        check "v1" 1 (Fs.version fs "a");
        ignore (Fs.open_file fs "a");
        ignore (Fs.open_file fs "a");
        check "v3" 3 (Fs.version fs "a"));
    Alcotest.test_case "create truncates and bumps version" `Quick (fun () ->
        let fs = Fs.create () in
        let f = Fs.create_file fs "a" in
        Fs.write f ~offset:0 (Bytes.of_string "data");
        ignore (Fs.create_file fs "a");
        check "size" 0 (Fs.size fs "a");
        check "version" 2 (Fs.version fs "a"));
    Alcotest.test_case "read past end is short" `Quick (fun () ->
        let fs = Fs.create () in
        let f = Fs.create_file fs "a" in
        Fs.write f ~offset:0 (Bytes.of_string "abc");
        check "short" 1 (Bytes.length (Fs.read f ~offset:2 ~len:10));
        check "empty" 0 (Bytes.length (Fs.read f ~offset:5 ~len:10)));
    Alcotest.test_case "delete and missing-file errors" `Quick (fun () ->
        let fs = Fs.create () in
        ignore (Fs.create_file fs "a");
        Fs.delete fs "a";
        check_b "gone" false (Fs.exists fs "a");
        Alcotest.check_raises "missing" (Fs.No_such_file "a") (fun () ->
            ignore (Fs.open_file fs "a")));
    Alcotest.test_case "list is sorted" `Quick (fun () ->
        let fs = Fs.create () in
        ignore (Fs.create_file fs "b");
        ignore (Fs.create_file fs "a");
        Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Fs.list fs));
  ]

(* -- netstack -------------------------------------------------------------- *)

let mk_actor ?(on_connect = fun _ -> []) ?(on_data = fun _ _ -> []) ip port =
  {
    Netstack.actor_name = "test";
    actor_ip = Types.Ip.of_string ip;
    actor_port = port;
    on_connect;
    on_data;
  }

let local = Types.Ip.of_string "10.0.0.1"

let net_tests =
  [
    Alcotest.test_case "connect gets paper's first ephemeral port" `Quick
      (fun () ->
        let net = Netstack.create ~local_ip:local in
        Netstack.register_actor net (mk_actor "10.0.0.2" 80);
        let s = Netstack.socket net in
        let flow =
          Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80
        in
        check "ephemeral" 49162 flow.dst_port;
        check "remote port" 80 flow.src_port);
    Alcotest.test_case "connection refused without listener" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        let s = Netstack.socket net in
        match Netstack.connect net s ~ip:1 ~port:2 with
        | exception Netstack.Connection_refused _ -> ()
        | _ -> Alcotest.fail "expected refusal");
    Alcotest.test_case "on_connect payload is received in chunks" `Quick
      (fun () ->
        let net = Netstack.create ~local_ip:local in
        Netstack.register_actor net
          (mk_actor ~on_connect:(fun _ -> [ "hello "; "world" ]) "10.0.0.2" 80);
        let s = Netstack.socket net in
        ignore (Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80);
        check_s "partial" "hel" (Netstack.recv net s ~len:3);
        check_s "rest" "lo world" (Netstack.recv net s ~len:100);
        check_s "dry" "" (Netstack.recv net s ~len:10));
    Alcotest.test_case "send triggers on_data reply" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        Netstack.register_actor net
          (mk_actor ~on_data:(fun _ req -> [ "re:" ^ req ]) "10.0.0.2" 80);
        let s = Netstack.socket net in
        ignore (Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80);
        check "sent" 4 (Netstack.send net s "ping");
        check_s "reply" "re:ping" (Netstack.recv net s ~len:100));
    Alcotest.test_case "record sink sees rx traffic" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        let seen = ref [] in
        Netstack.set_record_sink net (fun _flow chunks -> seen := chunks :: !seen);
        Netstack.register_actor net
          (mk_actor ~on_connect:(fun _ -> [ "a"; "b" ]) "10.0.0.2" 80);
        let s = Netstack.socket net in
        ignore (Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80);
        ignore (Netstack.send net s "q");
        Alcotest.(check (list (list string)))
          "one answer per call, the send's empty" [ []; [ "a"; "b" ] ] !seen);
    Alcotest.test_case "trace actors give recorded answers" `Quick (fun () ->
        let server = Types.Ip.of_string "10.0.0.2" in
        let flow port =
          { Types.src_ip = server; src_port = 80; dst_ip = local; dst_port = port }
        in
        let f1 = flow Netstack.first_ephemeral_port
        and f2 = flow (Netstack.first_ephemeral_port + 1) in
        let trace =
          {
            Faros_replay.Trace.empty with
            events =
              [
                Answer (f1, [ "a" ]); Answer (f2, []); Answer (f1, [ "b"; "c" ]);
                Answer (f2, [ "x" ]);
              ];
          }
        in
        let replay_net () =
          let net = Netstack.create ~local_ip:local in
          List.iter (Netstack.register_actor net) (Faros_replay.Trace.actors trace);
          net
        in
        let net = replay_net () in
        let s1 = Netstack.socket net and s2 = Netstack.socket net in
        ignore (Netstack.connect net s1 ~ip:server ~port:80);
        ignore (Netstack.connect net s2 ~ip:server ~port:80);
        let answers s = ignore (Netstack.send net s "?"); Netstack.recv net s ~len:100 in
        check_s "s1 connect" "a" (Netstack.recv net s1 ~len:100);
        check_s "s2 connect" "" (Netstack.recv net s2 ~len:100);
        check_s "s2 send" "x" (answers s2);
        check_s "s1 send" "bc" (answers s1);
        check_s "s1 past its answers" "" (answers s1);
        (match Netstack.connect net (Netstack.socket net) ~ip:server ~port:81 with
        | exception Netstack.Connection_refused _ -> ()
        | _ -> Alcotest.fail "an endpoint that never answered must refuse");
        let net = replay_net () in
        let s = Netstack.socket net in
        ignore (Netstack.connect net s ~ip:server ~port:80);
        check_s "a second call starts fresh" "a" (Netstack.recv net s ~len:100));
    Alcotest.test_case "distinct connects get distinct flows" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        Netstack.register_actor net (mk_actor "10.0.0.2" 80);
        let s1 = Netstack.socket net and s2 = Netstack.socket net in
        let f1 =
          Netstack.connect net s1 ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80
        in
        let f2 =
          Netstack.connect net s2 ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80
        in
        check_b "different" false (Types.flow_equal f1 f2));
    Alcotest.test_case "sent traffic is retained for forensics" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        Netstack.register_actor net (mk_actor "10.0.0.2" 80);
        let s = Netstack.socket net in
        ignore (Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80);
        ignore (Netstack.send net s "x");
        ignore (Netstack.send net s "y");
        check "two" 2 (List.length (Netstack.sent_traffic net)));
    Alcotest.test_case "loopback bind/listen/accept pairs sockets" `Quick
      (fun () ->
        let net = Netstack.create ~local_ip:local in
        let srv = Netstack.socket net in
        Netstack.bind net srv ~port:9000;
        Netstack.listen net srv;
        check_b "nothing pending" true (Netstack.accept net srv = None);
        let cli = Netstack.socket net in
        let flow = Netstack.connect net cli ~ip:Netstack.loopback_ip ~port:9000 in
        check "client flow from server port" 9000 flow.src_port;
        (match Netstack.accept net srv with
        | None -> Alcotest.fail "expected pending connection"
        | Some conn ->
          ignore (Netstack.send net cli "ping");
          check_s "server got it" "ping" (Netstack.recv net conn ~len:8);
          ignore (Netstack.send net conn "pong");
          check_s "client got reply" "pong" (Netstack.recv net cli ~len:8)));
    Alcotest.test_case "loopback connect refused without listener" `Quick
      (fun () ->
        let net = Netstack.create ~local_ip:local in
        let cli = Netstack.socket net in
        match Netstack.connect net cli ~ip:Netstack.loopback_ip ~port:7777 with
        | exception Netstack.Connection_refused _ -> ()
        | _ -> Alcotest.fail "expected refusal");
    Alcotest.test_case "loopback traffic bypasses the record sink" `Quick
      (fun () ->
        let net = Netstack.create ~local_ip:local in
        let recorded = ref 0 in
        Netstack.set_record_sink net (fun _ _ -> incr recorded);
        let srv = Netstack.socket net in
        Netstack.bind net srv ~port:9000;
        Netstack.listen net srv;
        let cli = Netstack.socket net in
        ignore (Netstack.connect net cli ~ip:Netstack.loopback_ip ~port:9000);
        (match Netstack.accept net srv with
        | Some conn -> ignore (Netstack.send net cli "x"); ignore conn
        | None -> Alcotest.fail "no pending");
        check "nothing recorded" 0 !recorded);
    Alcotest.test_case "double bind on a port is refused" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        let a = Netstack.socket net and b = Netstack.socket net in
        Netstack.bind net a ~port:9000;
        match Netstack.bind net b ~port:9000 with
        | exception Netstack.Bad_socket _ -> ()
        | _ -> Alcotest.fail "expected Bad_socket");
    Alcotest.test_case "bad socket raises" `Quick (fun () ->
        let net = Netstack.create ~local_ip:local in
        Alcotest.check_raises "bad" (Netstack.Bad_socket 99) (fun () ->
            ignore (Netstack.recv net 99 ~len:1)));
  ]

(* -- MiniPE ---------------------------------------------------------------- *)

let sample_image () =
  Pe.of_program ~name:"t.exe" ~base:0x400000
    ~imports:[ "WriteFile"; "socket" ]
    ~exports:[ "start" ]
    [
      Faros_vm.Asm.Label "start";
      Faros_vm.Asm.I Faros_vm.Isa.Nop;
      Faros_vm.Asm.I Faros_vm.Isa.Halt;
    ]

let pe_tests =
  [
    Alcotest.test_case "serialize/parse roundtrip" `Quick (fun () ->
        let img = sample_image () in
        let img' = Pe.parse (Pe.serialize img) in
        check_s "name" img.img_name img'.img_name;
        check "base" img.base img'.base;
        check "entry" img.entry img'.entry;
        Alcotest.(check (list (pair string int))) "imports" img.imports img'.imports;
        Alcotest.(check (list (pair string int))) "exports" img.exports img'.exports;
        check "sections" (List.length img.sections) (List.length img'.sections));
    Alcotest.test_case "entry defaults to base without start" `Quick (fun () ->
        let img =
          Pe.of_program ~name:"x" ~base:0x400000 [ Faros_vm.Asm.I Faros_vm.Isa.Halt ]
        in
        check "entry" 0x400000 img.entry);
    Alcotest.test_case "iat slots appended per import" `Quick (fun () ->
        let img = sample_image () in
        check "two imports" 2 (List.length img.imports);
        List.iter
          (fun (_, slot) -> check_b "slot in image" true (slot >= img.base))
          img.imports);
    Alcotest.test_case "bad magic rejected" `Quick (fun () ->
        Alcotest.check_raises "magic" (Pe.Bad_image "bad magic") (fun () ->
            ignore (Pe.parse "NOPE....")));
    Alcotest.test_case "truncated image rejected" `Quick (fun () ->
        let s = Pe.serialize (sample_image ()) in
        match Pe.parse (String.sub s 0 (String.length s - 3)) with
        | exception Pe.Bad_image _ -> ()
        | _ -> Alcotest.fail "expected Bad_image");
    Alcotest.test_case "mapped_pages covers the span" `Quick (fun () ->
        let img = sample_image () in
        check_b "at least one page" true (Pe.mapped_pages img >= 1));
  ]

(* -- export table / kernel region ------------------------------------------ *)

let export_tests =
  [
    Alcotest.test_case "hash is deterministic and spreads" `Quick (fun () ->
        check "same"
          (Export_table.hash_name "LoadLibraryA")
          (Export_table.hash_name "LoadLibraryA");
        check_b "different" true
          (Export_table.hash_name "LoadLibraryA"
          <> Export_table.hash_name "GetProcAddress"));
    Alcotest.test_case "all APIs exported with distinct stubs" `Quick (fun () ->
        let machine = Faros_vm.Machine.create () in
        let et = Export_table.build machine in
        check "count" (List.length Syscall.exported_apis) (Export_table.entry_count et);
        let addrs = List.map snd et.exports in
        check "distinct" (List.length addrs)
          (List.length (List.sort_uniq compare addrs)));
    Alcotest.test_case "directory layout: count then entries" `Quick (fun () ->
        let machine = Faros_vm.Machine.create () in
        let et = Export_table.build machine in
        let read4 v = Faros_vm.Mmu.read ~width:4 machine.mmu ~asid:et.space.asid v in
        check "count word" (Export_table.entry_count et)
          (read4 Export_table.export_dir_vaddr);
        let api, addr = List.hd et.exports in
        check "hash" (Export_table.hash_name api) (read4 Export_table.entries_vaddr);
        check "pointer" addr (read4 (Export_table.entries_vaddr + 4)));
    Alcotest.test_case "pointer paddrs cover 4 bytes per export" `Quick (fun () ->
        let machine = Faros_vm.Machine.create () in
        let et = Export_table.build machine in
        check "paddrs" (4 * Export_table.entry_count et)
          (List.fold_left
             (fun acc (_, es) -> acc + Faros_vm.Extent.total es)
             0 et.pointers_by_name));
    Alcotest.test_case "stubs decode to mov/syscall/ret" `Quick (fun () ->
        let machine = Faros_vm.Machine.create () in
        let et = Export_table.build machine in
        let stub = Export_table.stub_addr et "VirtualAlloc" in
        let fetch off =
          Faros_vm.Mmu.read_u8 machine.mmu ~asid:et.space.asid (stub + off)
        in
        let i1, l1 = Faros_vm.Decode.decode fetch in
        check_b "mov r0" true
          (i1
          = Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r0, Syscall.nt_allocate_virtual_memory));
        let fetch2 off = fetch (l1 + off) in
        let i2, _ = Faros_vm.Decode.decode fetch2 in
        check_b "syscall" true (i2 = Faros_vm.Isa.Syscall));
    Alcotest.test_case "26+ filesystem syscalls hookable" `Quick (fun () ->
        check_b "surface" true (List.length Syscall.filesystem_syscalls >= 10));
  ]

(* -- kernel integration ----------------------------------------------------- *)

let i x = Faros_vm.Asm.I x
let r0 = Faros_vm.Isa.r0
let r1 = Faros_vm.Isa.r1
let r2 = Faros_vm.Isa.r2
let r3 = Faros_vm.Isa.r3

(* Boot a kernel with one program installed as [name] and run it. *)
let run_guest ?(name = "t.exe") ?(imports = []) ?(setup = fun _ -> ()) items =
  let k = Kernel.create () in
  setup k;
  let image = Pe.of_program ~name ~base:Process.image_base ~imports items in
  Kernel.install_image k ~path:name image;
  let events = ref [] in
  Kernel.subscribe k (fun ev -> events := ev :: !events);
  let pid = Kernel.spawn k name in
  Kernel.run k;
  (k, pid, List.rev !events)

let events_of_kind name events =
  List.filter (fun ev -> Os_event.name ev = name) events

(* A guest that calls LoadLibrary on [path] (where [dll] is installed)
   and exits with the result.  Returns the process, what [seen] reads of
   its address space on entry to and exit from the call, and the run's
   events. *)
let load_library_seen ~path ~seen dll =
  let views = ref [] in
  let k, pid, events =
    run_guest
      ~setup:(fun k ->
        Kernel.install_image k ~path dll;
        Kernel.subscribe k (function
          | Os_event.Sys_enter { pid; sysno; _ } | Os_event.Sys_exit { pid; sysno; _ }
            when sysno = Syscall.ldr_load_library ->
            views := seen (Kstate.proc_exn k pid).space :: !views
          | _ -> ()))
      (List.concat
         [
           [
             Faros_vm.Asm.Label "start";
             Faros_corpus.Progs.lea_label r1 "name";
             i (Faros_vm.Isa.Mov_ri (r2, String.length path));
           ];
           Faros_corpus.Progs.syscall Syscall.ldr_load_library;
           [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
           Faros_corpus.Progs.cstring "name" path;
         ])
  in
  match !views with
  | [ after; before ] -> (Kstate.proc_exn k pid, before, after, events)
  | l -> Alcotest.failf "expected one LoadLibrary call, saw %d events" (List.length l)

(* The same, seeing the caller's mapped ranges. *)
let load_library_run ~path dll =
  let p, before, after, events =
    load_library_seen ~path ~seen:Faros_vm.Mmu.mapped_ranges dll
  in
  (p.exit_code, before, after, events)

(* The same for CreateProcess on [path], counting address spaces instead. *)
let create_process_run ~path image =
  let spaces = ref [] in
  let k, pid, events =
    run_guest
      ~setup:(fun k ->
        Kernel.install_image k ~path image;
        Kernel.subscribe k (function
          | Os_event.Sys_enter { sysno; _ } | Os_event.Sys_exit { sysno; _ }
            when sysno = Syscall.nt_create_process ->
            spaces := Hashtbl.length k.machine.mmu.spaces :: !spaces
          | _ -> ()))
      (List.concat
         [
           [
             Faros_vm.Asm.Label "start";
             Faros_corpus.Progs.lea_label r1 "path";
             i (Faros_vm.Isa.Mov_ri (r2, String.length path));
             i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r3, 0));
             i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r4, 0));
           ];
           Faros_corpus.Progs.syscall Syscall.nt_create_process;
           [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
           Faros_corpus.Progs.cstring "path" path;
         ])
  in
  match !spaces with
  | [ after; before ] -> ((Option.get (Kstate.proc k pid)).exit_code, before, after, events)
  | l -> Alcotest.failf "expected one CreateProcess call, saw %d events" (List.length l)

(* An image of one data section at [vaddr], which need not be its base. *)
let one_section_image ~name ~base ~vaddr data : Pe.t =
  {
    img_name = name;
    base;
    entry = base;
    sections =
      [
        { sec_name = ".data"; sec_vaddr = vaddr; sec_data = data; sec_exec = false;
          sec_write = true };
      ];
    imports = [];
    exports = [];
  }

let kernel_tests =
  [
    Alcotest.test_case "spawn + halt emits lifecycle events" `Quick (fun () ->
        let _, pid, events =
          run_guest [ i (Faros_vm.Isa.Mov_ri (r1, 3)); i Faros_vm.Isa.Halt ]
        in
        check "created" 1 (List.length (events_of_kind "proc_created" events));
        match events_of_kind "proc_exited" events with
        | [ Os_event.Proc_exited { pid = p; code } ] ->
          check "pid" pid p;
          check "exit code from r1" 3 code
        | _ -> Alcotest.fail "expected one exit");
    Alcotest.test_case "image load gets file_read provenance events" `Quick
      (fun () ->
        let _, _, events = run_guest [ i Faros_vm.Isa.Halt ] in
        check_b "file_read for image" true (events_of_kind "file_read" events <> []));
    Alcotest.test_case "dbg_print reaches subscribers" `Quick (fun () ->
        let _, _, events =
          run_guest
            (List.concat
               [
                 [
                   Faros_vm.Asm.Label "start";
                   Faros_corpus.Progs.lea_label r1 "msg";
                   i (Faros_vm.Isa.Mov_ri (r2, 5));
                 ];
                 Faros_corpus.Progs.syscall Syscall.dbg_print;
                 [ i Faros_vm.Isa.Halt ];
                 Faros_corpus.Progs.cstring "msg" "hello";
               ])
        in
        match events_of_kind "debug_print" events with
        | [ Os_event.Debug_print { text; _ } ] -> check_s "text" "hello" text
        | _ -> Alcotest.fail "expected debug_print");
    Alcotest.test_case "file write syscall persists to fs" `Quick (fun () ->
        let k, _, _ =
          run_guest
            (List.concat
               [
                 [
                   Faros_vm.Asm.Label "start";
                   Faros_corpus.Progs.lea_label r1 "path";
                   i (Faros_vm.Isa.Mov_ri (r2, 5));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_create_file;
                 [
                   i (Faros_vm.Isa.Mov_rr (r1, r0));
                   Faros_corpus.Progs.lea_label r2 "data";
                   i (Faros_vm.Isa.Mov_ri (r3, 4));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_write_file;
                 [ i Faros_vm.Isa.Halt ];
                 Faros_corpus.Progs.cstring "path" "out.t";
                 Faros_corpus.Progs.cstring "data" "ABCD";
               ])
        in
        check_s "content" "ABCD" (Fs.read_all k.fs "out.t"));
    Alcotest.test_case "file read/seek syscalls observe position" `Quick
      (fun () ->
        let _, pid, k_and_events =
          let k, pid, events =
            run_guest
              ~setup:(fun k -> Fs.install k.fs "in.t" "0123456789")
              (List.concat
                 [
                   [
                     Faros_vm.Asm.Label "start";
                     Faros_corpus.Progs.lea_label r1 "path";
                     i (Faros_vm.Isa.Mov_ri (r2, 4));
                   ];
                   Faros_corpus.Progs.syscall Syscall.nt_open_file;
                   [ i (Faros_vm.Isa.Mov_rr (Faros_vm.Isa.r7, r0)) ];
                   [
                     i (Faros_vm.Isa.Mov_rr (r1, Faros_vm.Isa.r7));
                     i (Faros_vm.Isa.Mov_ri (r2, 6));
                   ];
                   Faros_corpus.Progs.syscall Syscall.nt_set_file_position;
                   [
                     i (Faros_vm.Isa.Mov_rr (r1, Faros_vm.Isa.r7));
                     Faros_corpus.Progs.lea_label r2 "buf";
                     i (Faros_vm.Isa.Mov_ri (r3, 8));
                   ];
                   Faros_corpus.Progs.syscall Syscall.nt_read_file;
                   [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
                   Faros_corpus.Progs.cstring "path" "in.t";
                   Faros_corpus.Progs.buffer "buf" 8;
                 ])
          in
          (k, pid, (k, events))
        in
        let k, _ = k_and_events in
        (* exit code (r1 at halt) = bytes read = 4 remaining past offset 6 *)
        check "read count" 4 (Option.get (Kstate.proc k pid)).exit_code);
    Alcotest.test_case "unknown syscall returns error" `Quick (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 Faros_corpus.Progs.syscall 0xEE;
                 [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
               ])
        in
        match Kstate.proc k pid with
        | Some p -> check "err" 0xFFFFFFFF p.exit_code
        | None -> Alcotest.fail "process missing");
    Alcotest.test_case "faulting process is terminated, others continue" `Quick
      (fun () ->
        let k = Kernel.create () in
        let bad =
          Pe.of_program ~name:"bad.exe" ~base:Process.image_base
            [ i (Faros_vm.Isa.Load (4, r0, Faros_vm.Isa.abs 0xDEAD0000)) ]
        in
        let good =
          Pe.of_program ~name:"good.exe" ~base:Process.image_base
            [ i (Faros_vm.Isa.Mov_ri (r1, 9)); i Faros_vm.Isa.Halt ]
        in
        Kernel.install_image k ~path:"bad.exe" bad;
        Kernel.install_image k ~path:"good.exe" good;
        let bad_pid = Kernel.spawn k "bad.exe" in
        let good_pid = Kernel.spawn k "good.exe" in
        Kernel.run k;
        let state pid = (Option.get (Kstate.proc k pid)).Process.state in
        check_b "bad terminated" true (state bad_pid = Process.Terminated);
        check_b "bad faulted" true ((Option.get (Kstate.proc k bad_pid)).fault <> None);
        check "good exit" 9 (Option.get (Kstate.proc k good_pid)).exit_code);
    Alcotest.test_case "scheduler interleaves two processes" `Quick (fun () ->
        let k = Kernel.create () in
        let worker name =
          Pe.of_program ~name ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.idle_loop ~label:"w" ~count:50;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        Kernel.install_image k ~path:"a.exe" (worker "a.exe");
        Kernel.install_image k ~path:"b.exe" (worker "b.exe");
        let pa = Kernel.spawn k "a.exe" in
        let pb = Kernel.spawn k "b.exe" in
        Kernel.run ~timeslice:20 k;
        check_b "both done" true
          ((Option.get (Kstate.proc k pa)).state = Process.Terminated
          && (Option.get (Kstate.proc k pb)).state = Process.Terminated));
    Alcotest.test_case "max_ticks bounds runaway guests" `Quick (fun () ->
        let k = Kernel.create () in
        let spin =
          Pe.of_program ~name:"spin.exe" ~base:Process.image_base
            [ Faros_vm.Asm.Label "start"; Faros_vm.Asm.Jmp_l "start" ]
        in
        Kernel.install_image k ~path:"spin.exe" spin;
        ignore (Kernel.spawn k "spin.exe");
        Kernel.run ~max_ticks:500 k;
        check_b "bounded" true (Kernel.tick k <= 501));
    Alcotest.test_case "suspended process does not run until resumed" `Quick
      (fun () ->
        let k = Kernel.create () in
        let child =
          Pe.of_program ~name:"child.exe" ~base:Process.image_base
            [ i (Faros_vm.Isa.Mov_ri (r1, 1)); i Faros_vm.Isa.Halt ]
        in
        Kernel.install_image k ~path:"child.exe" child;
        let pid = Kernel.spawn k ~suspended:true "child.exe" in
        Kernel.run k;
        check_b "still suspended" true
          ((Option.get (Kstate.proc k pid)).state = Process.Suspended);
        check "no instructions" 0 (Option.get (Kstate.proc k pid)).cpu.instr_count);
    Alcotest.test_case "via_stub flag distinguishes API path" `Quick (fun () ->
        let stub_calls = ref 0 and raw_calls = ref 0 in
        let k = Kernel.create () in
        let image =
          Pe.of_program ~name:"t.exe" ~base:Process.image_base
            ~imports:[ "GetTickCount" ]
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.syscall Syscall.nt_get_tick_count;
                 [ i (Faros_vm.Isa.Mov_ri (r1, 0)) ];
                 Faros_corpus.Progs.call_api "GetTickCount";
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        Kernel.install_image k ~path:"t.exe" image;
        Kernel.subscribe k (fun ev ->
            match ev with
            | Os_event.Sys_enter { via_stub = true; _ } -> incr stub_calls
            | Os_event.Sys_enter { via_stub = false; _ } -> incr raw_calls
            | _ -> ());
        ignore (Kernel.spawn k "t.exe");
        Kernel.run k;
        check "stub" 1 !stub_calls;
        check "raw" 1 !raw_calls);
    Alcotest.test_case "cross-process write moves bytes and emits mem_copy"
      `Quick (fun () ->
        let k = Kernel.create () in
        let victim =
          Pe.of_program ~name:"v.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.idle_loop ~label:"w" ~count:200;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        let writer =
          Pe.of_program ~name:"w.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [ i (Faros_vm.Isa.Mov_ri (r1, 100)); i (Faros_vm.Isa.Mov_ri (r2, 64)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 [
                   i (Faros_vm.Isa.Mov_ri (r1, 100));
                   i (Faros_vm.Isa.Mov_rr (r2, r0));
                   Faros_vm.Asm.Mov_label (r3, "payload");
                   i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r4, 4));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_write_virtual_memory;
                 [ i Faros_vm.Isa.Halt ];
                 Faros_corpus.Progs.cstring "payload" "PWND";
               ])
        in
        Kernel.install_image k ~path:"v.exe" victim;
        Kernel.install_image k ~path:"w.exe" writer;
        let copies = ref [] in
        Kernel.subscribe k (fun ev ->
            match ev with
            | Os_event.Mem_copy { src; dst; _ } -> copies := (src, dst) :: !copies
            | _ -> ());
        let vpid = Kernel.spawn k "v.exe" in
        ignore (Kernel.spawn k "w.exe");
        Kernel.run k;
        let v = Option.get (Kstate.proc k vpid) in
        check_s "bytes landed" "PWND"
          (Bytes.to_string
             (Faros_vm.Mmu.read_bytes k.machine.mmu ~asid:(Process.asid v)
                Process.heap_base 4));
        check "one copy event" 1 (List.length !copies));
    Alcotest.test_case "LoadLibrary maps a DLL and resolves its exports" `Quick
      (fun () ->
        let dll =
          Pe.of_program ~name:"helper.dll" ~base:Process.dll_base
            ~exports:[ "helper_fn" ]
            [
              Faros_vm.Asm.Label "helper_fn";
              i (Faros_vm.Isa.Mov_ri (r0, 1234));
              i Faros_vm.Isa.Ret;
            ]
        in
        let k, pid, events =
          run_guest
            ~setup:(fun k -> Kernel.install_image k ~path:"helper.dll" dll)
            (List.concat
               [
                 [
                   Faros_vm.Asm.Label "start";
                   Faros_corpus.Progs.lea_label r1 "name";
                   i (Faros_vm.Isa.Mov_ri (r2, 10));
                 ];
                 Faros_corpus.Progs.syscall Syscall.ldr_load_library;
                 (* resolve helper_fn and call it *)
                 [
                   Faros_corpus.Progs.lea_label r1 "fn";
                   i (Faros_vm.Isa.Mov_ri (r2, 9));
                 ];
                 Faros_corpus.Progs.syscall Syscall.ldr_get_proc_address;
                 [
                   i (Faros_vm.Isa.Call_r r0);
                   i (Faros_vm.Isa.Mov_rr (r1, r0));
                   i Faros_vm.Isa.Halt;
                 ];
                 Faros_corpus.Progs.cstring "name" "helper.dll";
                 Faros_corpus.Progs.cstring "fn" "helper_fn";
               ])
        in
        check "returned value" 1234 (Option.get (Kstate.proc k pid)).exit_code;
        check "module events" 2 (List.length (events_of_kind "module_loaded" events)));
    Alcotest.test_case "LoadLibrary of a DLL with an unknown import returns -1"
      `Quick (fun () ->
        let dll =
          Pe.of_program ~name:"bad.dll" ~base:Process.dll_base ~imports:[ "NoSuchApi" ]
            [ Faros_vm.Asm.Label "bad_fn"; i Faros_vm.Isa.Ret ]
        in
        let ret, before, after, events = load_library_run ~path:"bad.dll" dll in
        check "LoadLibrary returned -1" (-1 land Faros_vm.Word.mask) ret;
        Alcotest.(check (list (pair int int))) "mapped ranges unchanged" before after;
        check "only the caller's own image loaded" 1
          (List.length (events_of_kind "module_loaded" events)));
    Alcotest.test_case "CreateProcess of an image with an unknown import returns -1"
      `Quick (fun () ->
        let child =
          Pe.of_program ~name:"bad.exe" ~base:Process.image_base ~imports:[ "NoSuchApi" ]
            [ Faros_vm.Asm.Label "start"; i Faros_vm.Isa.Halt ]
        in
        let ret, before, after, events = create_process_run ~path:"bad.exe" child in
        check "CreateProcess returned -1" (-1 land Faros_vm.Word.mask) ret;
        check "no address space created" before after;
        check "no process created" 1 (List.length (events_of_kind "proc_created" events)));
    Alcotest.test_case "LoadLibrary maps only the page a far section covers"
      `Quick (fun () ->
        let far = Process.dll_base + 0x4000_0000 in
        let dll =
          one_section_image ~name:"far.dll" ~base:Process.dll_base ~vaddr:far
            "\000\000\000\000"
        in
        let ret, before, after, _ = load_library_run ~path:"far.dll" dll in
        check "LoadLibrary returned the base" Process.dll_base ret;
        Alcotest.(check (list (pair int int)))
          "one page mapped" [ (far, Faros_vm.Phys_mem.page_size) ]
          (List.filter (fun r -> not (List.mem r before)) after));
    Alcotest.test_case "LoadLibrary of a badly laid-out DLL returns -1"
      `Quick (fun () ->
        let page = Faros_vm.Phys_mem.page_size in
        let below =
          one_section_image ~name:"low.dll" ~base:Process.dll_base
            ~vaddr:(Process.dll_base - page) "\000\000\000\000"
        and past_4g =
          one_section_image ~name:"high.dll" ~base:0xFFFFF000 ~vaddr:0xFFFFF000
            (String.make (2 * page) '\000')
        and stray_slot =
          {
            (one_section_image ~name:"slot.dll" ~base:Process.dll_base
               ~vaddr:Process.dll_base "\000\000\000\000")
            with
            imports = [ ("WriteFile", Process.dll_base + (2 * page)) ];
          }
        in
        List.iter
          (fun (path, dll) ->
            let ret, before, after, events = load_library_run ~path dll in
            check (path ^ ": LoadLibrary returned -1") (-1 land Faros_vm.Word.mask) ret;
            Alcotest.(check (list (pair int int)))
              (path ^ ": mapped ranges unchanged") before after;
            check (path ^ ": only the caller's own image loaded") 1
              (List.length (events_of_kind "module_loaded" events)))
          [ ("low.dll", below); ("high.dll", past_4g); ("slot.dll", stray_slot) ]);
    Alcotest.test_case "CreateProcess of an image with a section below its base returns -1"
      `Quick (fun () ->
        let child =
          one_section_image ~name:"low.exe" ~base:Process.image_base
            ~vaddr:(Process.image_base - Faros_vm.Phys_mem.page_size)
            "\000\000\000\000"
        in
        let ret, before, after, events = create_process_run ~path:"low.exe" child in
        check "CreateProcess returned -1" (-1 land Faros_vm.Word.mask) ret;
        check "no address space created" before after;
        check "no process created" 1 (List.length (events_of_kind "proc_created" events)));
  ]


(* -- more syscall edge cases --------------------------------------------------- *)

let exit_of k pid = (Option.get (Kstate.proc k pid)).Process.exit_code

(* Every served syscall number and the name its events carry. *)
let served_syscalls =
  [
    (0x01, "NtTerminateProcess"); (0x02, "NtCreateProcess"); (0x03, "NtSuspendProcess");
    (0x04, "NtResumeProcess"); (0x05, "NtAllocateVirtualMemory");
    (0x06, "NtWriteVirtualMemory"); (0x07, "NtReadVirtualMemory");
    (0x08, "NtUnmapViewOfSection"); (0x09, "NtGetContextThread");
    (0x0A, "NtSetContextThread"); (0x0B, "NtQueryInformationProcess");
    (0x0C, "NtGetCurrentPid"); (0x0D, "NtDelayExecution"); (0x0E, "NtGetTickCount");
    (0x0F, "NtYieldExecution"); (0x10, "NtCreateFile"); (0x11, "NtOpenFile");
    (0x12, "NtReadFile"); (0x13, "NtWriteFile"); (0x14, "NtClose");
    (0x15, "NtDeleteFile"); (0x16, "NtQueryFileSize"); (0x17, "NtSetFilePosition");
    (0x18, "NtQueryDirectoryFile"); (0x19, "NtFlushBuffersFile");
    (0x1A, "NtQueryAttributesFile"); (0x20, "socket"); (0x21, "connect"); (0x22, "send");
    (0x23, "recv"); (0x24, "bind"); (0x25, "listen"); (0x26, "accept"); (0x27, "poll");
    (0x30, "LdrLoadLibrary"); (0x31, "LdrGetProcAddress"); (0x40, "DevKeyRead");
    (0x41, "DevAudioRecord"); (0x42, "DevScreenshot"); (0x43, "DevPopup");
    (0x44, "DbgPrint");
  ]

(* A guest whose first instruction is [load4 r1, [r200]]. *)
let bad_address_register =
  Pe.of_program ~name:"bad.exe" ~base:Process.image_base
    [
      Faros_vm.Asm.Label "start";
      Faros_vm.Asm.Bytes "\x06\x01\x01\xc8\x00\x00\x00\x00\x00";
      i Faros_vm.Isa.Halt;
    ]

let abi_tests =
  [
    Alcotest.test_case "served syscall numbers keep their names" `Quick (fun () ->
        check "served" 41 (List.length served_syscalls);
        List.iter
          (fun (sysno, name) -> check_s (Printf.sprintf "%#x" sysno) name (Kernel.syscall_name sysno))
          served_syscalls);
    Alcotest.test_case "unserved numbers return -1 under a sys_ name" `Quick (fun () ->
        let unserved = [ 0x45; 0xEE; 0xFFFFFFFF ] in
        let _, _, events =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 List.concat_map Faros_corpus.Progs.syscall unserved;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        let names =
          List.filter_map
            (function
              | Os_event.Sys_enter { sysno; sysname; _ } -> Some (sysno, sysname)
              | _ -> None)
            events
        in
        let rets =
          List.filter_map
            (function Os_event.Sys_exit { sysno; ret; _ } -> Some (sysno, ret) | _ -> None)
            events
        in
        Alcotest.(check (list (pair int string)))
          "names"
          [ (0x45, "sys_0x45"); (0xEE, "sys_0xee"); (0xFFFFFFFF, "sys_0xffffffff") ]
          names;
        Alcotest.(check (list (pair int int)))
          "returns" (List.map (fun n -> (n, 0xFFFFFFFF)) unserved) rets);
    Alcotest.test_case "a bad address register ends its process, not the run" `Quick
      (fun () ->
        let k = Kernel.create () in
        let good =
          Pe.of_program ~name:"good.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.idle_loop ~label:"w" ~count:50;
                 [ i (Faros_vm.Isa.Mov_ri (r1, 7)); i Faros_vm.Isa.Halt ];
               ])
        in
        Kernel.install_image k ~path:"bad.exe" bad_address_register;
        Kernel.install_image k ~path:"good.exe" good;
        let bad = Kernel.spawn k "bad.exe" in
        let ok = Kernel.spawn k "good.exe" in
        Kernel.run k;
        let p = Kstate.proc_exn k bad in
        check_b "faulted on decode" true
          (p.fault = Some (Faros_vm.Cpu.Fault_decode Process.image_base));
        check "bad exit" (-1) p.exit_code;
        check_b "other process finished" true ((Kstate.proc_exn k ok).state = Process.Terminated);
        check "other exit" 7 (exit_of k ok));
    Alcotest.test_case "allocation refuses a range that reaches the stack" `Quick
      (fun () ->
        let k = Kernel.create () in
        let prog =
          Pe.of_program ~name:"t.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [
                   i (Faros_vm.Isa.Mov_ri (r1, 0));
                   i (Faros_vm.Isa.Mov_ri (r2, 2 * Faros_vm.Phys_mem.page_size));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
               ])
        in
        Kernel.install_image k ~path:"t.exe" prog;
        let pid = Kernel.spawn k "t.exe" in
        let p = Kstate.proc_exn k pid in
        p.heap_next <- Process.stack_base - Faros_vm.Phys_mem.page_size;
        let stack_frame () =
          Faros_vm.Mmu.frames_of p.space ~vaddr:Process.stack_base ~pages:1
        in
        let before = stack_frame () in
        Kernel.run k;
        check "refused" 0xFFFFFFFF (exit_of k pid);
        Alcotest.(check (list int)) "stack frame kept" before (stack_frame ()));
    Alcotest.test_case "untouched allocations take no host frames" `Quick (fun () ->
        (* 400 allocations of 1 MB that the guest never writes: frames are
           handed out for every page, and only the written ones (the
           kernel's stub and directory pages, the image page) hold bytes. *)
        let k, _, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start"; i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r6, 400)) ];
                 [ Faros_vm.Asm.Label "again" ];
                 [ i (Faros_vm.Isa.Mov_ri (r1, 0)); i (Faros_vm.Isa.Mov_ri (r2, 1 lsl 20)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 [
                   i (Faros_vm.Isa.Sub_ri (Faros_vm.Isa.r6, 1));
                   i (Faros_vm.Isa.Cmp_ri (Faros_vm.Isa.r6, 0));
                   Faros_vm.Asm.Jnz_l "again";
                   i Faros_vm.Isa.Halt;
                 ];
               ])
        in
        check "frames handed out" 102_438 (Faros_vm.Phys_mem.frame_count k.machine.mem);
        check "frames resident" 3 (Faros_vm.Phys_mem.resident_frames k.machine.mem));
    Alcotest.test_case "an oversized name returns -1 before the host allocates" `Quick
      (fun () ->
        (* Each syscall that reads a guest-supplied name, called with the
           name at the image base and a length the host must not copy. *)
        let named =
          Syscall.
            [
              nt_create_file; nt_open_file; nt_delete_file; nt_query_attributes_file;
              ldr_load_library; ldr_get_proc_address; nt_create_process;
            ]
        in
        let calls =
          List.concat_map
            (fun len -> List.map (fun sysno -> (sysno, len)) named)
            [ 0x10000000; 0xFFFFFFFF ]
        in
        let before = Gc.allocated_bytes () in
        let _, _, events =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 List.concat_map
                   (fun (sysno, len) ->
                     i (Faros_vm.Isa.Mov_ri (r1, Process.image_base))
                     :: i (Faros_vm.Isa.Mov_ri (r2, len))
                     :: Faros_corpus.Progs.syscall sysno)
                   calls;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        let allocated = Gc.allocated_bytes () -. before in
        let rets =
          List.filter_map
            (function Os_event.Sys_exit { sysno; ret; _ } -> Some (sysno, ret) | _ -> None)
            events
        in
        Alcotest.(check (list (pair int int)))
          "returns" (List.map (fun (sysno, _) -> (sysno, 0xFFFFFFFF)) calls) rets;
        check_b
          (Printf.sprintf "allocated %.0f bytes, under 16 MiB" allocated)
          true
          (allocated < float_of_int (16 lsl 20)));
    Alcotest.test_case "a seek past 1 MiB returns -1 before the host allocates" `Quick
      (fun () ->
        (* A guest seeks far past its file's end and writes one byte
           there, then tries the last byte of the 1 MiB bound. *)
        let max_io = 1 lsl 20 in
        let seek pos =
          [ i (Faros_vm.Isa.Mov_rr (r1, Faros_vm.Isa.r7)); i (Faros_vm.Isa.Mov_ri (r2, pos)) ]
          @ Faros_corpus.Progs.syscall Syscall.nt_set_file_position
        in
        let write len =
          [
            i (Faros_vm.Isa.Mov_rr (r1, Faros_vm.Isa.r7));
            Faros_corpus.Progs.lea_label r2 "data";
            i (Faros_vm.Isa.Mov_ri (r3, len));
          ]
          @ Faros_corpus.Progs.syscall Syscall.nt_write_file
        in
        let items =
          List.concat
            [
              [
                Faros_vm.Asm.Label "start";
                Faros_corpus.Progs.lea_label r1 "path";
                i (Faros_vm.Isa.Mov_ri (r2, 5));
              ];
              Faros_corpus.Progs.syscall Syscall.nt_create_file;
              [ i (Faros_vm.Isa.Mov_rr (Faros_vm.Isa.r7, r0)) ];
              seek (8 lsl 20);
              write 1;
              seek 0xFFFFFFFF;
              write 1;
              seek (max_io - 1);
              write 2;
              write 1;
              [ i Faros_vm.Isa.Halt ];
              Faros_corpus.Progs.cstring "path" "big.t";
              Faros_corpus.Progs.cstring "data" "AB";
            ]
        in
        let k, _, events = run_guest items in
        let rets sysno =
          List.filter_map
            (function
              | Os_event.Sys_exit { sysno = n; ret; _ } when n = sysno -> Some ret
              | _ -> None)
            events
        in
        Alcotest.(check (list int))
          "seeks: 8 MiB and 2^32-1 refused, max_io - 1 taken"
          [ 0xFFFFFFFF; 0xFFFFFFFF; 0 ]
          (rets Syscall.nt_set_file_position);
        Alcotest.(check (list int))
          "writes: two at the start, then 2 bytes refused and 1 byte taken at the bound"
          [ 1; 1; 0xFFFFFFFF; 1 ]
          (rets Syscall.nt_write_file);
        check "file stops at the bound" max_io (Fs.size k.fs "big.t");
        let image = Pe.of_program ~name:"t.exe" ~base:Process.image_base items in
        let scn =
          Faros_corpus.Scenario.make ~images:[ ("t.exe", image) ] ~boot:[ "t.exe" ] "seek"
        in
        let before = Gc.allocated_bytes () in
        ignore (Faros_corpus.Scenario.analyze scn);
        let allocated = Gc.allocated_bytes () -. before in
        check_b
          (Printf.sprintf "record + FAROS replay allocated %.0f bytes, under 32 MiB" allocated)
          true
          (allocated < float_of_int (32 lsl 20)));
    Alcotest.test_case "an image cannot map over an existing mapping" `Quick (fun () ->
        (* One-page DLLs based on the kernel stubs, the export directory,
           the stack and the caller's own code page: LoadLibrary returns -1
           and the frame mapped there stays. *)
        List.iter
          (fun (what, base) ->
            let dll =
              one_section_image ~name:"over.dll" ~base ~vaddr:base
                (String.make Faros_vm.Phys_mem.page_size '\001')
            in
            let frame space = Faros_vm.Mmu.frames_of space ~vaddr:base ~pages:1 in
            let p, before, after, _ = load_library_seen ~path:"over.dll" ~seen:frame dll in
            check (what ^ ": LoadLibrary returned -1") 0xFFFFFFFF p.exit_code;
            Alcotest.(check (list int)) (what ^ ": frame kept") before after;
            check_b (what ^ ": no fault") true (p.fault = None))
          [
            ("kernel stubs", Export_table.kernel_base);
            ("export directory", Export_table.export_dir_vaddr);
            ("stack", Process.stack_base);
            ("own code", Process.image_base);
          ];
        (* A process image with a section on the export directory. *)
        let k = Kernel.create () in
        Kernel.install_image k ~path:"over.exe"
          (one_section_image ~name:"over.exe" ~base:Process.image_base
             ~vaddr:Export_table.export_dir_vaddr "\000\000\000\000");
        let spaces () = Hashtbl.length k.machine.mmu.spaces in
        let before = spaces () in
        (match Kernel.spawn k "over.exe" with
        | exception Spawn.Bad_executable _ -> ()
        | _ -> Alcotest.fail "spawn mapped a section over the export directory");
        check "no address space created" before (spaces ()));
  ]

let more_syscall_tests =
  [
    Alcotest.test_case "allocations get distinct regions with guard gaps" `Quick
      (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [ i (Faros_vm.Isa.Mov_ri (r1, 0)); i (Faros_vm.Isa.Mov_ri (r2, 100)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 [ i (Faros_vm.Isa.Mov_rr (Faros_vm.Isa.r6, r0)) ];
                 [ i (Faros_vm.Isa.Mov_ri (r1, 0)); i (Faros_vm.Isa.Mov_ri (r2, 100)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 (* exit code = second - first *)
                 [
                   i (Faros_vm.Isa.Mov_rr (r1, r0));
                   i (Faros_vm.Isa.Sub_rr (r1, Faros_vm.Isa.r6));
                   i Faros_vm.Isa.Halt;
                 ];
               ])
        in
        check "two pages apart" (2 * Faros_vm.Phys_mem.page_size) (exit_of k pid));
    Alcotest.test_case "zero-size allocation fails" `Quick (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [ i (Faros_vm.Isa.Mov_ri (r1, 0)); i (Faros_vm.Isa.Mov_ri (r2, 0)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_allocate_virtual_memory;
                 [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
               ])
        in
        check "err" 0xFFFFFFFF (exit_of k pid));
    Alcotest.test_case "write_virtual_memory to a bad pid fails" `Quick
      (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [
                   i (Faros_vm.Isa.Mov_ri (r1, 999));
                   i (Faros_vm.Isa.Mov_ri (r2, Process.heap_base));
                   Faros_vm.Asm.Mov_label (r3, "buf");
                   i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r4, 4));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_write_virtual_memory;
                 [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
                 Faros_corpus.Progs.buffer "buf" 4;
               ])
        in
        check "err" 0xFFFFFFFF (exit_of k pid));
    Alcotest.test_case "read_virtual_memory roundtrips through another process"
      `Quick (fun () ->
        (* the reader pulls the victim's image header bytes into itself *)
        let k = Kernel.create () in
        let victim =
          Pe.of_program ~name:"v.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.idle_loop ~label:"w" ~count:100;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        let reader =
          Pe.of_program ~name:"r.exe" ~base:Process.image_base
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [
                   i (Faros_vm.Isa.Mov_ri (r1, 100));
                   i (Faros_vm.Isa.Mov_ri (r2, Process.image_base));
                   Faros_vm.Asm.Mov_label (r3, "buf");
                   i (Faros_vm.Isa.Mov_ri (Faros_vm.Isa.r4, 4));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_read_virtual_memory;
                 [ i (Faros_vm.Isa.Mov_rr (r1, r0)); i Faros_vm.Isa.Halt ];
                 Faros_corpus.Progs.buffer "buf" 4;
               ])
        in
        Kernel.install_image k ~path:"v.exe" victim;
        Kernel.install_image k ~path:"r.exe" reader;
        let _v = Kernel.spawn k "v.exe" in
        let rpid = Kernel.spawn k "r.exe" in
        Kernel.run k;
        check "copied 4" 4 (exit_of k rpid));
    Alcotest.test_case "unmapping your own code page faults the process" `Quick
      (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [
                   i (Faros_vm.Isa.Mov_ri (r1, 0));
                   i (Faros_vm.Isa.Mov_ri (r2, Process.image_base));
                   i (Faros_vm.Isa.Mov_ri (r3, Faros_vm.Phys_mem.page_size));
                 ];
                 Faros_corpus.Progs.syscall Syscall.nt_unmap_view_of_section;
                 [ i Faros_vm.Isa.Halt ];
               ])
        in
        let p = Option.get (Kstate.proc k pid) in
        check_b "faulted" true (p.fault <> None);
        check_b "terminated" true (p.state = Process.Terminated));
    Alcotest.test_case "get/set context steer a suspended child" `Quick
      (fun () ->
        let k = Kernel.create () in
        let child =
          Pe.of_program ~name:"c.exe" ~base:Process.image_base
            [
              Faros_vm.Asm.Label "start";
              i (Faros_vm.Isa.Mov_ri (r1, 1));
              i Faros_vm.Isa.Halt;
              Faros_vm.Asm.Label "alt";
              i (Faros_vm.Isa.Mov_ri (r1, 2));
              i Faros_vm.Isa.Halt;
            ]
        in
        let alt_entry = List.assoc "alt" (Faros_vm.Asm.assemble ~origin:Process.image_base
          [
            Faros_vm.Asm.Label "start";
            i (Faros_vm.Isa.Mov_ri (r1, 1));
            i Faros_vm.Isa.Halt;
            Faros_vm.Asm.Label "alt";
            i (Faros_vm.Isa.Mov_ri (r1, 2));
            i Faros_vm.Isa.Halt;
          ]).Faros_vm.Asm.symbols
        in
        Kernel.install_image k ~path:"c.exe" child;
        let pid = Kernel.spawn k ~suspended:true "c.exe" in
        let p = Option.get (Kstate.proc k pid) in
        check "initial pc is entry" child.entry p.cpu.pc;
        p.cpu.pc <- alt_entry;
        p.state <- Process.Ready;
        k.run_queue <- k.run_queue @ [ pid ];
        Kernel.run k;
        check "ran the alternate entry" 2 (exit_of k pid));
    Alcotest.test_case "file delete and attribute syscalls" `Quick (fun () ->
        let k, pid, events =
          run_guest
            ~setup:(fun k -> Fs.install k.fs "victim.txt" "data")
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 [ Faros_corpus.Progs.lea_label r1 "path"; i (Faros_vm.Isa.Mov_ri (r2, 10)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_query_attributes_file;
                 [ i (Faros_vm.Isa.Mov_rr (Faros_vm.Isa.r6, r0)) ];
                 [ Faros_corpus.Progs.lea_label r1 "path"; i (Faros_vm.Isa.Mov_ri (r2, 10)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_delete_file;
                 [ Faros_corpus.Progs.lea_label r1 "path"; i (Faros_vm.Isa.Mov_ri (r2, 10)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_query_attributes_file;
                 (* exit = before*10 + after *)
                 [
                   i (Faros_vm.Isa.Mov_ri (r2, 10));
                   i (Faros_vm.Isa.Mul_rr (Faros_vm.Isa.r6, r2));
                   i (Faros_vm.Isa.Add_rr (Faros_vm.Isa.r6, r0));
                   i (Faros_vm.Isa.Mov_rr (r1, Faros_vm.Isa.r6));
                   i Faros_vm.Isa.Halt;
                 ];
                 Faros_corpus.Progs.cstring "path" "victim.txt";
               ])
        in
        check "existed then gone" 10 (exit_of k pid);
        check "delete event" 1 (List.length (events_of_kind "file_deleted" events));
        check_b "fs agrees" false (Fs.exists k.fs "victim.txt"));
    Alcotest.test_case "tick count increases between reads" `Quick (fun () ->
        let k, pid, _ =
          run_guest
            (List.concat
               [
                 [ Faros_vm.Asm.Label "start" ];
                 Faros_corpus.Progs.syscall Syscall.nt_get_tick_count;
                 [ i (Faros_vm.Isa.Mov_rr (Faros_vm.Isa.r6, r0)) ];
                 Faros_corpus.Progs.syscall Syscall.nt_get_tick_count;
                 [
                   i (Faros_vm.Isa.Sub_rr (r0, Faros_vm.Isa.r6));
                   i (Faros_vm.Isa.Mov_rr (r1, r0));
                   i Faros_vm.Isa.Halt;
                 ];
               ])
        in
        check_b "monotonic" true (exit_of k pid > 0));
    Alcotest.test_case "synthetic devices are deterministic across kernels"
      `Quick (fun () ->
        let run_once () =
          let k, _, _ =
            run_guest
              (List.concat
                 [
                   [ Faros_vm.Asm.Label "start" ];
                   [ Faros_corpus.Progs.lea_label r1 "buf"; i (Faros_vm.Isa.Mov_ri (r2, 32)) ];
                   Faros_corpus.Progs.syscall Syscall.dev_audio_record;
                   [ Faros_corpus.Progs.lea_label r1 "path"; i (Faros_vm.Isa.Mov_ri (r2, 5)) ];
                   Faros_corpus.Progs.syscall Syscall.nt_create_file;
                   [
                     i (Faros_vm.Isa.Mov_rr (r1, r0));
                     Faros_corpus.Progs.lea_label r2 "buf";
                     i (Faros_vm.Isa.Mov_ri (r3, 32));
                   ];
                   Faros_corpus.Progs.syscall Syscall.nt_write_file;
                   [ i Faros_vm.Isa.Halt ];
                   Faros_corpus.Progs.cstring "path" "a.pcm";
                   Faros_corpus.Progs.buffer "buf" 32;
                 ])
          in
          Fs.read_all k.fs "a.pcm"
        in
        check_s "same bytes" (run_once ()) (run_once ()));
    Alcotest.test_case "spawn of a missing image raises" `Quick (fun () ->
        let k = Kernel.create () in
        Alcotest.check_raises "missing" (Spawn.Bad_executable "ghost.exe")
          (fun () -> ignore (Kernel.spawn k "ghost.exe")));
    Alcotest.test_case "loader rejects unresolvable imports" `Quick (fun () ->
        let k = Kernel.create () in
        let image =
          Pe.of_program ~name:"bad.exe" ~base:Process.image_base
            ~imports:[ "NoSuchApi" ]
            [ Faros_vm.Asm.Label "start"; i Faros_vm.Isa.Halt ]
        in
        Kernel.install_image k ~path:"bad.exe" image;
        Alcotest.check_raises "unresolved" (Loader.Unresolved_import "NoSuchApi")
          (fun () -> ignore (Kernel.spawn k "bad.exe")));
  ]


(* -- model-based properties --------------------------------------------------------- *)

(* The netstack is a byte stream: however the actor chunks its payload and
   however the guest sizes its recv calls, the concatenation comes out. *)
let netstack_stream_prop =
  QCheck.Test.make ~count:200 ~name:"recv reassembles any chunking"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 8) (string_size (int_range 0 20)))
           (list_size (int_range 1 12) (int_range 1 30))))
    (fun (chunks, recv_sizes) ->
      let net = Netstack.create ~local_ip:local in
      Netstack.register_actor net
        (mk_actor ~on_connect:(fun _ -> chunks) "10.0.0.2" 80);
      let s = Netstack.socket net in
      ignore (Netstack.connect net s ~ip:(Types.Ip.of_string "10.0.0.2") ~port:80);
      let buf = Buffer.create 64 in
      List.iter (fun len -> Buffer.add_string buf (Netstack.recv net s ~len)) recv_sizes;
      Buffer.add_string buf (Netstack.recv net s ~len:10_000);
      Buffer.contents buf = String.concat "" chunks)

(* The filesystem against a growable-bytes reference model. *)
let fs_model_prop =
  QCheck.Test.make ~count:200 ~name:"fs writes match a reference model"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 12)
           (pair (int_range 0 64) (string_size (int_range 0 24)))))
    (fun writes ->
      let fs = Fs.create () in
      let f = Fs.create_file fs "m" in
      let model = ref "" in
      List.iter
        (fun (offset, data) ->
          Fs.write f ~offset (Bytes.of_string data);
          let needed = offset + String.length data in
          if needed > String.length !model then
            model := !model ^ String.make (needed - String.length !model) '\000';
          model :=
            String.sub !model 0 offset ^ data
            ^ String.sub !model needed (String.length !model - needed))
        writes;
      Fs.read_all fs "m" = !model)

(* Random map/translate agreement for the MMU. *)
let mmu_translate_prop =
  QCheck.Test.make ~count:200 ~name:"mmu read back equals write"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 20) (pair (int_range 0 (8 * 4096 - 4)) (int_range 0 0xFFFFFF))))
    (fun writes ->
      let m = Faros_vm.Phys_mem.create () in
      let mmu = Faros_vm.Mmu.create m in
      let sp = Faros_vm.Mmu.create_space mmu ~name:"p" in
      Faros_vm.Mmu.map mmu sp ~vaddr:0x10000 ~pages:8;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (off, v) ->
          Faros_vm.Mmu.write ~width:4 mmu ~asid:sp.asid (0x10000 + off) v;
          (* later writes can overlap earlier ones: track per byte *)
          for k = 0 to 3 do
            Hashtbl.replace model (off + k) ((v lsr (8 * k)) land 0xFF)
          done)
        writes;
      Hashtbl.fold
        (fun off expected acc ->
          acc && Faros_vm.Mmu.read_u8 mmu ~asid:sp.asid (0x10000 + off) = expected)
        model true)

let property_tests =
  [
    QCheck_alcotest.to_alcotest netstack_stream_prop;
    QCheck_alcotest.to_alcotest fs_model_prop;
    QCheck_alcotest.to_alcotest mmu_translate_prop;
  ]

let () =
  Alcotest.run "faros_os"
    [
      ("ip-flow", ip_tests);
      ("fs", fs_tests);
      ("netstack", net_tests);
      ("pe", pe_tests);
      ("exports", export_tests);
      ("kernel", kernel_tests);
      ("syscalls-more", more_syscall_tests);
      ("abi", abi_tests);
      ("properties", property_tests);
    ]

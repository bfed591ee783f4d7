(* Benign software from Table IV: remote-admin tools whose *behaviours*
   overlap heavily with the RATs (that is the point of the false-positive
   study) plus two purely local tools. *)

open Faros_vm

let server_ip = "100.64.11.5"

let networked ~name ~port ~behaviors ~seed =
  let frags = Behavior.compose ~seed behaviors in
  let imports =
    List.sort_uniq compare ([ "socket"; "connect" ] @ Behavior.imports frags)
  in
  let exe = name ^ ".exe" in
  let image =
    Faros_os.Pe.of_program ~name:exe ~base:Faros_os.Process.image_base ~imports
      (List.concat
         [
           [ Progs.lbl "start" ];
           Progs.connect_api ~ip:server_ip ~port;
           Behavior.code frags;
           [ Progs.halt ];
           [ Asm.Align 4 ];
           Behavior.data frags;
         ])
  in
  let actor =
    {
      Faros_os.Netstack.actor_name = name ^ "-server";
      actor_ip = Faros_os.Types.Ip.of_string server_ip;
      actor_port = port;
      on_connect =
        (fun _flow ->
          let feed = Behavior.c2_feed frags in
          if feed = "" then [] else [ feed ]);
      on_data = (fun _flow _data -> []);
    }
  in
  Scenario.make name
    ~images:[ (exe, image); ("calc.exe", Victims.calc ()) ]
    ~files:Rats.support_files ~actors:[ actor ]
    ~keys:"meeting notes for tuesday" ~boot:[ exe ]

(* A purely local tool: screenshot to file, no network at all. *)
let snipping_tool ~seed =
  let n = 128 + (seed mod 3 * 32) in
  let exe = "snipping_tool.exe" in
  let image =
    Faros_os.Pe.of_program ~name:exe ~base:Faros_os.Process.image_base
      ~imports:[ "BitBlt"; "CreateFileA"; "WriteFile" ]
      (List.concat
         [
           [ Progs.lbl "start" ];
           [ Progs.lea_label Isa.r1 "buf"; Progs.movi Isa.r2 n ];
           Progs.call_api "BitBlt";
           [ Progs.lea_label Isa.r1 "path"; Progs.movi Isa.r2 8 ];
           Progs.call_api "CreateFileA";
           [
             Progs.movr Isa.r1 Isa.r0;
             Progs.lea_label Isa.r2 "buf";
             Progs.movi Isa.r3 n;
           ];
           Progs.call_api "WriteFile";
           [ Progs.halt ];
           Progs.cstring "path" "snip.png";
           Progs.buffer "buf" n;
         ])
  in
  Scenario.make (Printf.sprintf "snipping_tool_s%d" seed) ~images:[ (exe, image) ]
    ~boot:[ exe ]

let programs : (string * int * Behavior.t list) list =
  let open Behavior in
  [
    ("remote_utility", 5650, [ Idle; Run; File_transfer; Remote_desktop; Remote_shell ]);
    ("teamviewer", 5938, [ Idle; Remote_desktop; Remote_shell ]);
    ("skype", 33033, [ Idle; Audio_record; Download ]);
  ]

(* 14 benign samples: variants of the three networked tools plus the local
   snipping tool. *)
let samples () =
  let total = 14 in
  let networked_total = total - (total / 4) in
  let nprog = List.length programs in
  let networked_samples =
    List.init networked_total (fun idx ->
        let prog_idx = idx mod nprog in
        let seed = idx / nprog in
        let name0, base_port, behaviors = List.nth programs prog_idx in
        let name = Printf.sprintf "%s_s%d" name0 seed in
        (name, name0, behaviors, networked ~name ~port:(base_port + seed) ~behaviors ~seed))
  in
  let local_samples =
    List.init (total - networked_total) (fun seed ->
        ( Printf.sprintf "snipping_tool_s%d" seed,
          "snipping_tool",
          [],
          snipping_tool ~seed ))
  in
  networked_samples @ local_samples

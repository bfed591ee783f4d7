(* The Table IV corpus: non-injecting RAT families.

   Every sample is a composition of behaviour fragments over a C2
   connection; variants of a family differ by seed (sizes, iteration
   counts) and port, so each of the 90 samples is a distinct program — but
   none of them moves code across a process boundary, which is what keeps
   FAROS quiet on all of them. *)

open Faros_vm

let c2_ip = "169.254.26.161"

let image ~name ~port ~behaviors ~seed =
  let frags = Behavior.compose ~seed behaviors in
  let imports =
    List.sort_uniq compare ([ "socket"; "connect" ] @ Behavior.imports frags)
  in
  let items =
    List.concat
      [
        [ Progs.lbl "start" ];
        Progs.connect_api ~ip:c2_ip ~port;
        Behavior.code frags;
        [ Progs.halt ];
        [ Asm.Align 4 ];
        Behavior.data frags;
      ]
  in
  Faros_os.Pe.of_program ~name ~base:Faros_os.Process.image_base ~imports items

let c2_actor ~port ~feed =
  {
    Faros_os.Netstack.actor_name = "c2";
    actor_ip = Faros_os.Types.Ip.of_string c2_ip;
    actor_port = port;
    on_connect = (fun _flow -> if feed = "" then [] else [ feed ]);
    on_data = (fun _flow _data -> []);
  }

(* Data files the File_transfer / Upload behaviours read. *)
let support_files =
  [
    ("secret.txt", "TOP-SECRET: quarterly numbers and a cookie recipe....");
    ("upload.bin", String.init 64 (fun k -> Char.chr (0x41 + (k mod 26))));
  ]

let scenario ~name ~port ~behaviors ~seed =
  let frags = Behavior.compose ~seed behaviors in
  let feed = Behavior.c2_feed frags in
  let exe = name ^ ".exe" in
  Scenario.make name
    ~images:[ (exe, image ~name:exe ~port ~behaviors ~seed); ("calc.exe", Victims.calc ()) ]
    ~files:support_files
    ~actors:[ c2_actor ~port ~feed ]
    ~keys:"correct horse battery staple"
    ~boot:[ exe ]

(* The 17 malware rows of Table IV: family, base port, behaviours. *)
let families : (string * int * Behavior.t list) list =
  let open Behavior in
  [
    ("pandora_v2.2", 5200, [ Idle; Run; Audio_record; File_transfer; Key_logger; Remote_desktop; Upload ]);
    ("darkcomet_v5.3", 1604, [ Idle; Run; Audio_record; File_transfer; Key_logger; Remote_desktop ]);
    ("njrat_v0.7", 1177, [ Idle; Run; File_transfer; Key_logger; Upload; Remote_shell ]);
    ("spygate_v3.2", 8521, [ Idle; Run; Audio_record; File_transfer; Key_logger; Remote_desktop; Remote_shell ]);
    ("blue_banana", 7700, [ Idle; Run; Key_logger; Remote_shell ]);
    ("blue_banana_v2.0", 7710, [ Idle; Run; Key_logger; Remote_shell ]);
    ("blue_banana_v3.0", 7720, [ Idle; Run; Key_logger; Remote_shell ]);
    ("bozok", 4300, [ Idle; Run; File_transfer; Key_logger; Remote_desktop; Upload ]);
    ("bozok_v2.0", 4310, [ Idle; Run; File_transfer; Key_logger; Remote_desktop; Upload ]);
    ("bozok_v3.0", 4320, [ Idle; Run; File_transfer; Key_logger; Remote_desktop; Upload ]);
    ("darkcomet_v5.1.2", 1605, [ Idle; Run; Audio_record; File_transfer; Key_logger; Remote_desktop ]);
    ("darkcomet_legacy", 1606, [ Idle; Run; Audio_record; File_transfer; Key_logger; Remote_desktop ]);
    ("extremerat_v2.7.1", 9125, [ Idle; Run; Audio_record; File_transfer; Key_logger; Upload; Download ]);
    ("jspy", 6400, [ Idle; Run; Key_logger; Download ]);
    ("jspy_v2.0", 6410, [ Idle; Run; Key_logger; Download ]);
    ("jspy_v3.0", 6420, [ Idle; Run; Key_logger; Download ]);
    ("quasar_v1.0", 4782, [ Idle; Run; Remote_shell ]);
  ]

(* 90 sample builds spread across the 17 families, seeds making each build
   distinct. *)
let samples () =
  let nfam = List.length families in
  List.init 90 (fun idx ->
      let family_idx = idx mod nfam in
      let seed = idx / nfam in
      let family, base_port, behaviors = List.nth families family_idx in
      let name = Printf.sprintf "%s_s%d" family seed in
      (name, family, behaviors, scenario ~name ~port:(base_port + seed) ~behaviors ~seed))

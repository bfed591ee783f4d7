(* The generated campaign corpus: a parameter sweep over the Table IV
   behaviour matrix.

   The paper's evaluation is a fixed 130-sample set; production triage
   traffic is not.  This module mints thousands of registered samples by
   sweeping the dimensions that actually vary in the wild —

     evasion kind   : reflective / self-inject / IAT dropper /
                      taint-laundering / benign download
     scrub timing   : payload persists vs unmaps itself after running
     flow shape     : the framed payload arrives as one wire chunk or
                      split across several (each chunk is a separately
                      recorded netflow delivery)
     payload size   : the pop-up text padded to 16 / 64 / 256 bytes
     victim         : notepad / firefox / explorer
     seed           : varies the payload bytes, so provenance is per-sample

   — with fully deterministic ids ([swp_<kind>_<dims>_sNN]) and scenario
   contents: the same seed always produces the same bytes, so serial and
   [-j N] campaigns over the sweep stay byte-identical.

   Every image and payload is built through {!Snapshot}: a thousand
   samples share three victim images, a handful of client images and one
   payload blob per (size, seed, scrub) point, so corpus construction is
   O(distinct artifacts), not O(samples).

   Job lengths are deliberately uneven — laundering samples replay a
   bit-by-bit copy loop and victims idle for tens of thousands of ticks
   while self-inject samples finish in hundreds — the long-tail shape
   the pool's one shared queue keeps every domain busy through.

   Samples return as plain tuples (like {!Rats.samples}) so {!Registry}
   can map them into categories without a dependency cycle. *)

open Faros_vm

type kind = Refl | Self_inject | Iat | Launder | Drop

(* -- deterministic payload bytes ------------------------------------------ *)

(* Pad a per-seed tag to [size] bytes with a seed-shifted alphabet: every
   (size, seed) point yields distinct, reproducible payload text. *)
let text ~size ~seed =
  let tag = Printf.sprintf "swp%02d!" seed in
  String.init size (fun i ->
      if i < String.length tag then tag.[i]
      else Char.chr (Char.code 'a' + ((i + seed) mod 26)))

(* -- flow shape ----------------------------------------------------------- *)

(* Split the framed payload into [chunks] wire deliveries.  The guest's
   recv loop reassembles them; the trace records each chunk as its own
   inbound delivery, so the flow SHAPE changes while the flow BYTES stay
   identical. *)
let chunked ~chunks payload =
  let framed = Progs.frame payload in
  let n = String.length framed in
  let per = max 1 ((n + chunks - 1) / chunks) in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let len = min per (n - i) in
      go (i + len) (String.sub framed i len :: acc)
  in
  go 0 []

let actor ~ip ~port ~chunks ~payload =
  {
    Faros_os.Netstack.actor_name = "sweepnet";
    actor_ip = Faros_os.Types.Ip.of_string ip;
    actor_port = port;
    on_connect = (fun _flow -> chunked ~chunks payload);
    on_data = (fun _flow _data -> []);
  }

(* -- the benign end of the matrix ----------------------------------------- *)

(* A downloader that receives the same framed payload and simply halts:
   tainted bytes sit in its buffer, nothing ever executes them.  The
   clean control the sweep needs so the campaign's mismatch logic is
   exercised in both directions at scale. *)
let drop_client () =
  Snapshot.image "sweep_drop_client" @@ fun () ->
  Faros_os.Pe.of_program ~name:"drop_client.exe"
    ~base:Faros_os.Process.image_base
    (List.concat
       [
         [ Progs.lbl "start" ];
         Progs.connect_raw ~ip:Attack_reflective.attacker_ip
           ~port:Attack_reflective.attacker_port;
         Progs.prefixed_recv ~sock_reg:Isa.r7 ~len_buf:"lenbuf"
           ~data_buf:"pbuf" ~recv_sub:"recvx";
         [ Progs.halt ];
         Progs.recv_exact_sub ~label:"recvx";
         [ Asm.Align 4 ];
         Progs.buffer "lenbuf" 4;
         Progs.buffer "pbuf" 4096;
       ])

(* -- scenario builders per kind ------------------------------------------- *)

let refl_ip = Attack_reflective.attacker_ip
let refl_port = Attack_reflective.attacker_port

let refl ~id ~victim_exe ~victim ~scrub ~chunks ~size ~seed =
  let payload = Payloads.popup ~scrub ~text:(text ~size ~seed) () in
  Scenario.make id
    ~images:
      [
        (victim_exe, victim);
        ( "inject_client.exe",
          Attack_reflective.client_image ~name:"inject_client.exe"
            ~inject:(`Pid Attack_reflective.first_boot_pid) );
      ]
    ~actors:[ actor ~ip:refl_ip ~port:refl_port ~chunks ~payload ]
    ~boot:[ victim_exe; "inject_client.exe" ]

let self_inject ~id ~scrub ~chunks ~size ~seed =
  let payload = Payloads.popup ~scrub ~text:(text ~size ~seed) () in
  Scenario.make id
    ~images:
      [
        ( "inject_client.exe",
          Attack_reflective.client_image ~name:"inject_client.exe"
            ~inject:`Self );
      ]
    ~actors:[ actor ~ip:refl_ip ~port:refl_port ~chunks ~payload ]
    ~boot:[ "inject_client.exe" ]

(* IAT droppers read the wire through the hooked recv API with explicit
   lengths, so they always take the whole frame in one delivery: the
   chunk dimension stays fixed at 1 for this kind. *)
let iat ~id ~port ~scrub ~size ~seed =
  let payload = Payloads.popup ~scrub ~text:(text ~size ~seed) () in
  let name = "sweep_inject.exe" in
  Scenario.make id
    ~images:
      [
        ("explorer.exe", Victims.explorer ());
        ( name,
          Attack_injection.injector_image ~name ~c2_port:port
            ~target_pid:Attack_reflective.first_boot_pid );
      ]
    ~actors:[ Attack_injection.c2_actor ~port ~payload ]
    ~boot:[ "explorer.exe"; name ]

let launder ~id ~chunks ~seed =
  (* Laundering replays a bit-by-bit copy of the whole payload, so only
     the small payload size rides this kind; the 2M-tick budget matches
     the hand-written evasive sample. *)
  let payload = Payloads.popup ~text:(text ~size:16 ~seed) () in
  Scenario.make id
    ~images:
      [
        ("notepad.exe", Victims.notepad ());
        ( "evasive_client.exe",
          Attack_evasive.client_image
            ~target_pid:Attack_reflective.first_boot_pid );
      ]
    ~actors:
      [
        actor ~ip:Attack_evasive.attacker_ip ~port:Attack_evasive.attacker_port
          ~chunks ~payload;
      ]
    ~max_ticks:2_000_000
    ~boot:[ "notepad.exe"; "evasive_client.exe" ]

let drop ~id ~chunks ~size ~seed =
  let payload = Payloads.popup ~text:(text ~size ~seed) () in
  Scenario.make id
    ~images:[ ("drop_client.exe", drop_client ()) ]
    ~actors:[ actor ~ip:refl_ip ~port:refl_port ~chunks ~payload ]
    ~boot:[ "drop_client.exe" ]

(* -- the sweep ------------------------------------------------------------ *)

let victims = [ ("notepad", "notepad.exe", Victims.notepad);
                ("firefox", "firefox.exe", Victims.firefox);
                ("explorer", "explorer.exe", Victims.explorer) ]

let scrubs = [ (false, "keep"); (true, "scrub") ]
let chunk_counts = [ 1; 2; 4 ]
let sizes = [ 16; 64; 256 ]
let iat_ports = [ 1604; 1177; 8443 ]

(* Seed count: sized so the full sweep crosses 1,000 samples
   (3*2*3*3*s refl + 2*3*3*s self + 3*2*3*s iat + 3*3*s drop + 4
   launder = 1093 at s = 11). *)
let seeds = 11

let samples () =
  let seed_list = List.init seeds Fun.id in
  let refl_samples =
    List.concat_map
      (fun (vname, victim_exe, victim) ->
        List.concat_map
          (fun (scrub, sname) ->
            List.concat_map
              (fun chunks ->
                List.concat_map
                  (fun size ->
                    List.map
                      (fun seed ->
                        let id =
                          Printf.sprintf "swp_refl_%s_%s_c%d_b%03d_s%02d"
                            vname sname chunks size seed
                        in
                        (id, Refl,
                         refl ~id ~victim_exe ~victim:(victim ()) ~scrub
                           ~chunks ~size ~seed))
                      seed_list)
                  sizes)
              chunk_counts)
          scrubs)
      victims
  in
  let self_samples =
    List.concat_map
      (fun (scrub, sname) ->
        List.concat_map
          (fun chunks ->
            List.concat_map
              (fun size ->
                List.map
                  (fun seed ->
                    let id =
                      Printf.sprintf "swp_self_%s_c%d_b%03d_s%02d" sname
                        chunks size seed
                    in
                    (id, Self_inject, self_inject ~id ~scrub ~chunks ~size ~seed))
                  seed_list)
              sizes)
          chunk_counts)
      scrubs
  in
  let iat_samples =
    List.concat_map
      (fun port ->
        List.concat_map
          (fun (scrub, sname) ->
            List.concat_map
              (fun size ->
                List.map
                  (fun seed ->
                    let id =
                      Printf.sprintf "swp_iat_p%d_%s_b%03d_s%02d" port sname
                        size seed
                    in
                    (id, Iat, iat ~id ~port ~scrub ~size ~seed))
                  seed_list)
              sizes)
          scrubs)
      iat_ports
  in
  let drop_samples =
    List.concat_map
      (fun chunks ->
        List.concat_map
          (fun size ->
            List.map
              (fun seed ->
                let id =
                  Printf.sprintf "swp_drop_c%d_b%03d_s%02d" chunks size seed
                in
                (id, Drop, drop ~id ~chunks ~size ~seed))
              seed_list)
          sizes)
      chunk_counts
  in
  let launder_samples =
    List.concat_map
      (fun chunks ->
        List.map
          (fun seed ->
            let id = Printf.sprintf "swp_launder_c%d_s%02d" chunks seed in
            (id, Launder, launder ~id ~chunks ~seed))
          [ 0; 1 ])
      [ 1; 2 ]
  in
  refl_samples @ self_samples @ iat_samples @ drop_samples @ launder_samples

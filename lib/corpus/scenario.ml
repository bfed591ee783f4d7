(* Scenario: everything needed to run one sample end to end.

   A scenario separates what is *deterministic system construction* (images
   and data files — present at both record and replay time) from what is
   *external non-determinism* (network actors and the user's keystrokes —
   live at record time, replaced by the trace at replay time). *)

type t = {
  scn_name : string;
  images : (string * Faros_os.Pe.t) list;  (* path -> image *)
  files : (string * string) list;  (* path -> contents *)
  actors : Faros_os.Netstack.actor list;
  inbound : (int * Faros_os.Netstack.inbound_event) list;
      (* host-initiated traffic: the generator's schedule at record time;
         at replay the trace's recorded schedule takes its place *)
  keys : string;  (* scripted user keystrokes *)
  boot : string list;  (* image paths spawned at boot, in order *)
  max_ticks : int;
}

let make ?(files = []) ?(actors = []) ?(inbound = []) ?(keys = "")
    ?(max_ticks = 600_000) ~images ~boot scn_name =
  { scn_name; images; files; actors; inbound; keys; boot; max_ticks }

let install t (k : Faros_os.Kernel.t) =
  List.iter (fun (path, image) -> Faros_os.Kernel.install_image k ~path image) t.images;
  List.iter (fun (path, data) -> Faros_os.Fs.install k.fs path data) t.files

let setup_record t k =
  install t k;
  List.iter (Faros_os.Netstack.register_actor k.net) t.actors;
  Faros_os.Netstack.schedule_inbound k.net t.inbound;
  Faros_os.Input_dev.script_string k.input t.keys

let setup_replay t k = install t k

let boot t (k : Faros_os.Kernel.t) =
  List.iter (fun path -> ignore (Faros_os.Kernel.spawn k path)) t.boot

(* Record the scenario live. *)
let record t =
  Faros_replay.Recorder.record ~max_ticks:t.max_ticks ~setup:(setup_record t)
    ~boot:(boot t) ()

(* Replay a trace without any analysis plugin (the Table V baseline). *)
let replay_plain t trace =
  Faros_replay.Replayer.replay ~max_ticks:t.max_ticks ~setup:(setup_replay t)
    ~boot:(boot t) trace

(* Replay a trace with a given plugin set. *)
let replay_with t ?sample ~plugins trace =
  Faros_replay.Replayer.replay ~max_ticks:t.max_ticks ?sample ~plugins
    ~setup:(setup_replay t) ~boot:(boot t) trace

(* Full FAROS workflow: record, then replay under the FAROS plugin.
   [max_ticks] overrides the scenario's own tick budget (campaign jobs cap
   runaway samples with it); [deadline] is a wall-clock budget in seconds
   (see {!Core.Analysis.analyze}). *)
let analyze ?config ?metrics ?telemetry ?max_ticks ?deadline ?profile ?sink
    ?extra_plugins t =
  Core.Analysis.analyze ?config ?metrics ?telemetry ?deadline ?profile ?sink
    ?extra_plugins
    ~max_ticks:(Option.value max_ticks ~default:t.max_ticks)
    ~setup_record:(setup_record t) ~setup_replay:(setup_replay t)
    ~boot:(boot t) ()

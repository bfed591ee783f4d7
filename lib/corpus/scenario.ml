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
let replay_with t ~plugins trace =
  Faros_replay.Replayer.replay ~max_ticks:t.max_ticks ~plugins
    ~setup:(setup_replay t) ~boot:(boot t) trace

(* Replay ticks between telemetry rows and between deadline checks. *)
let sample_interval = 64

(* The replay half of {!analyze}: replay [trace] under the FAROS plugin
   and [extra_plugins], then finalize.  When [telemetry] or a deadline
   asks for one, a sampler plugin attached after all the others fires
   every [sample_interval] ticks and once after the replay, so the last
   row is the final state.  A row sees that instruction's propagation
   already applied, the tick before the kernel's increment (the first row
   is tick 0) and a syscall count that does not yet include the syscall
   being executed (dispatch bumps it after the exec hooks). *)
let replay_faros ?(config = Core.Config.default) ?metrics ?telemetry
    ?check_deadline ?(profile = Faros_obs.Profile.disabled)
    ?(sink = Faros_obs.Sink.null) ?(extra_plugins = fun _kernel _faros -> [])
    ~max_ticks t trace : Core.Analysis.outcome =
  let faros_ref = ref None and final_fire = ref ignore in
  let plugins (kernel : Faros_os.Kernel.t) =
    let faros = Core.Faros_plugin.create ~config ?metrics ~sink kernel in
    faros_ref := Some faros;
    let plugins = Core.Faros_plugin.plugin faros :: extra_plugins kernel faros in
    if Option.is_none telemetry && Option.is_none check_deadline then plugins
    else begin
      let fire () =
        Option.iter (fun check -> check ()) check_deadline;
        Option.iter
          (fun series ->
            Core.Telemetry.sample series faros ~tick:kernel.tick
              ~syscalls:kernel.syscalls)
          telemetry
      in
      final_fire := fire;
      plugins
      @ [
          Faros_replay.Plugin.make "sampler" ~on_exec:(fun _ _ ->
              if kernel.tick mod sample_interval = 0 then fire ());
        ]
    end
  in
  let replay =
    Faros_obs.Profile.with_span profile "replay" (fun () ->
        let replay =
          Faros_replay.Replayer.replay ~max_ticks ~profile ~plugins
            ~setup:(setup_replay t) ~boot:(boot t) trace
        in
        !final_fire ();
        replay)
  in
  (* the replayer always builds the plugins *)
  let faros = Option.get !faros_ref in
  Faros_obs.Profile.with_span profile "finalize" (fun () ->
      Core.Faros_plugin.finalize faros);
  { faros; report = Core.Faros_plugin.report faros; trace; replay }

let analyze ?config ?metrics ?telemetry ?max_ticks ?deadline
    ?(profile = Faros_obs.Profile.disabled) ?sink ?extra_plugins t =
  let check_deadline =
    Option.map
      (fun seconds ->
        let limit = Unix.gettimeofday () +. seconds in
        fun () ->
          if Unix.gettimeofday () > limit then raise Core.Analysis.Deadline_exceeded)
      deadline
  in
  let max_ticks = Option.value max_ticks ~default:t.max_ticks in
  let _kernel, trace =
    Faros_obs.Profile.with_span profile "record" (fun () ->
        Faros_replay.Recorder.record ~max_ticks ~profile
          ~setup:(setup_record t) ~boot:(boot t) ())
  in
  Option.iter (fun check -> check ()) check_deadline;
  replay_faros ?config ?metrics ?telemetry ?check_deadline ~profile ?sink
    ?extra_plugins ~max_ticks t trace

let analyze_trace ?config ?telemetry t trace =
  replay_faros ?config ?telemetry ~max_ticks:t.max_ticks t trace

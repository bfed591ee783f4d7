(* tablev: the paper's Table V cost of FAROS over replay.  Set-up records
   the six Perf.workloads rows; one op replays all six under FAROS, in
   the seed's order (seed 0 is the paper's).  The seed moves only the
   order, never the programs, so every seed does the same work.  The op
   never builds a graph, so it is the bypass workload for graph, query
   and farm: a change there must leave it unchanged. *)

open Harness

type program = {
  label : string;
  scn : Faros_corpus.Scenario.t;
  trace : Faros_replay.Trace.t;
}

let record (label, scn) =
  let _kernel, trace = Faros_corpus.Scenario.record scn in
  { label; scn; trace }

(* One FAROS-on replay of one program.  The check: the replay did not
   diverge, consumed exactly the recorded ticks, and raised no flag
   (every Table V program is benign).  Returns the check and the
   program's report fingerprint. *)
let replay ?probe prog =
  let metrics = Faros_obs.Metrics.create () in
  let faros_ref = ref None and timers = ref [] in
  let res =
    Faros_corpus.Scenario.replay_with prog.scn
      ~plugins:(fun kernel ->
        let ps, ts =
          Whodunit.faros_plugins ?probe ~metrics ~builder:None faros_ref kernel
        in
        timers := ts;
        ps)
      prog.trace
  in
  let faros = Option.get !faros_ref in
  phase probe "core.finalize_s" (fun () -> Core.Faros_plugin.finalize faros);
  Option.iter
    (fun p ->
      List.iter (flush p) !timers;
      add_faros_counts p metrics;
      add p "vm.guest_instrs" (float res.replay_ticks);
      add p "os.syscalls" (float res.replay_syscalls);
      add p "replay.diverged" (if res.diverged then 1. else 0.))
    probe;
  let report = Core.Faros_plugin.report faros in
  let st = Faros_dift.Engine.stats faros.engine in
  let ok =
    (not res.diverged)
    && res.replay_ticks = prog.trace.final_tick
    && not (Core.Report.flagged report)
  in
  ( ok,
    Printf.sprintf "%s:%d:%d:%d:%d:%s" prog.label res.replay_ticks
      res.replay_syscalls st.instrs st.tainted_bytes (Core.Report.summary report) )

(* One op: a FAROS-on replay pass over every program, in order. *)
let pass ?probe progs =
  let checks = List.map (replay ?probe) progs in
  (List.for_all fst checks, String.concat "|" (List.map snd checks))

(* The replay-side split: rounds of bare and FAROS-only replays of every
   program, run between traced ops; per program the median over the
   rounds, summed over the programs. *)
let differential progs =
  let plain = Hashtbl.create 8 and faros = Hashtbl.create 8 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  let round () =
    fresh ();
    List.iter (fun p -> push plain p.label (Whodunit.replay_plain p.scn p.trace)) progs;
    fresh ();
    List.iter (fun p -> push faros p.label (Whodunit.replay_faros p.scn p.trace)) progs
  in
  let sum tbl = Hashtbl.fold (fun _ xs acc -> acc +. Stats.median xs) tbl 0. in
  (round, fun () -> (sum plain, sum faros))

let run ~seed ~seconds ~trace =
  let record_s = ref [] in
  let progs, setup_s =
    setup_median ~k:9 (fun () ->
        let scns = Stats.shuffle ~seed (Faros_corpus.Perf.workloads ()) in
        let progs, dt = timed (fun () -> List.map record scns) in
        record_s := dt :: !record_s;
        progs)
  in
  (* Warm-up op: fills caches and fixes the reference fingerprint. *)
  fresh ();
  let warm, reference = pass progs in
  let round, split = differential progs in
  let l =
    loop ~seconds ~trace ~between:round (fun probe ->
        let ok, fp = pass ?probe progs in
        ok && fp = reference)
  in
  let layers = median_readings l.readings in
  if trace then begin
    let plain, faros = split () in
    let whole = Stats.median l.traced in
    derive layers ~plain ~faros ~whole ();
    add layers "replay.record_s" (Stats.median !record_s);
    finish_trace l layers
      ~layer_sum:(faros +. get layers "core.finalize_s")
      ~traced_s:whole
  end;
  {
    r_setup_s = setup_s;
    r_loop = l;
    r_layers = layers;
    r_spawned = 1;
    r_checks = [ ("tablev warm-up pass", warm) ];
  }

(* Shared machinery of the four workloads: the clock, run hygiene, the
   closed op loop, per-layer probes for the traced run, and host facts.

   Everything here drives the pipeline from outside: layer times come
   from timing public calls and from wrapping a plugin's [on_os_event]
   closure, never from instrumentation inside lib/. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float (now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Untimed hygiene before every op and set-up: a fresh provenance store
   on this domain, as Campaign.run_job installs per job, and a compacted
   heap.  Without it one op's garbage and interned provenance tax the
   next, and medians drift upwards over a run. *)
let fresh () =
  Faros_dift.Prov_intern.set_store (Faros_dift.Prov_intern.create_store ());
  Gc.compact ()

(* -- per-layer probes ------------------------------------------------------ *)

(* One traced op's readings, name -> value; phases met more than once in
   an op (one per program, one per sample) add up. *)
type probe = (string, float) Hashtbl.t

let probe () : probe = Hashtbl.create 64
let get (p : probe) name = Option.value ~default:0. (Hashtbl.find_opt p name)
let ratio a b = if b = 0. then 0. else a /. b

let add (p : probe) name v = Hashtbl.replace p name (v +. get p name)

let phase p name f =
  match p with
  | None -> f ()
  | Some p ->
    let v, dt = timed f in
    add p name dt;
    v

(* Time a plugin's OS-event hook into [name].  A Table V pass makes
   ~59k syscalls, and two clock reads on each would cost ~3% of the
   pass, so the wrapper times one event in eight, picked by a xorshift
   draw (a fixed stride could alias with a guest loop's syscall
   pattern), and scales the sampled time up by the event count.  The
   counters are ints, so the wrapper allocates nothing per event; they
   fold into the probe once the replay is over ([flush]). *)
type hook_timer = {
  h_name : string;
  mutable h_ns : int;  (** time inside the sampled events *)
  mutable h_sampled : int;
  mutable h_events : int;
  mutable h_rng : int;
}

let hook_timer name =
  { h_name = name; h_ns = 0; h_sampled = 0; h_events = 0; h_rng = 0x2545F491 }

let wrap_os_event timer (p : Faros_replay.Plugin.t) =
  match p.on_os_event with
  | None -> p
  | Some f ->
    let on_os_event ev =
      timer.h_events <- timer.h_events + 1;
      let x = timer.h_rng in
      let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
      let x = x lxor (x lsr 17) in
      let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
      timer.h_rng <- x;
      if x land 7 = 0 then begin
        let t0 = now_ns () in
        f ev;
        timer.h_ns <- timer.h_ns + (now_ns () - t0);
        timer.h_sampled <- timer.h_sampled + 1
      end
      else f ev
    in
    { p with on_os_event = Some on_os_event }

let flush (p : probe) timer =
  let scale = ratio (float timer.h_events) (float timer.h_sampled) in
  add p timer.h_name (float timer.h_ns *. 1e-9 *. scale);
  timer.h_ns <- 0;
  timer.h_sampled <- 0;
  timer.h_events <- 0

(* Gauges and counters the FAROS plugin (and builder) published into
   [metrics], by registry name. *)
let metric metrics name =
  Faros_obs.Metrics.fold metrics
    (fun acc n m ->
      if n <> name then acc
      else
        match m with
        | Faros_obs.Metrics.Counter c -> float (Faros_obs.Metrics.counter_value c)
        | Faros_obs.Metrics.Gauge g -> float (Faros_obs.Metrics.gauge_value g)
        | Faros_obs.Metrics.Histogram h -> float (Faros_obs.Metrics.histogram_count h))
    0.

(* The registry readings every FAROS replay contributes, summed across
   the op's replays. *)
let add_faros_counts p metrics =
  List.iter
    (fun (layer, reg) -> add p layer (metric metrics reg))
    [
      ("dift.fastpath.hits", "dift.fastpath.hits");
      ("dift.fastpath.misses", "dift.fastpath.misses");
      ("dift.interned_provs", "prov.interned");
      ("dift.tainted_bytes", "shadow.tainted_bytes");
      ("dift.shadow_pages", "shadow.pages");
      ("core.loads_checked", "detector.loads_checked");
      ("core.flags", "detector.flags");
      ("vm.tbcache.hits", "vm.tbcache.hits");
      ("vm.tbcache.misses", "vm.tbcache.misses");
      ("vm.tlb.hits", "vm.tlb.hits");
      ("vm.tlb.misses", "vm.tlb.misses");
    ]

(* The derived per-layer metrics of a probe holding one traced op's (or
   a subset's) summed readings.  The replay itself is split by the
   differential: [plain] bare replay, [faros] FAROS only, [full] FAROS
   plus the graph builder when the workload builds a graph; [whole] is
   the traced time the readings decompose. *)
let derive p ~plain ~faros ?full ~whole () =
  let rate h m = ratio (get p h) (get p h +. get p m) in
  add p "vm.tbcache.hit_rate" (rate "vm.tbcache.hits" "vm.tbcache.misses");
  add p "vm.tlb.hit_rate" (rate "vm.tlb.hits" "vm.tlb.misses");
  add p "vm.replay_plain_s" plain;
  add p "vm.ns_per_instr" (ratio plain (get p "vm.guest_instrs") *. 1e9);
  add p "dift.self_s" (faros -. plain);
  add p "dift.slowdown" (ratio faros plain);
  Option.iter (fun full -> add p "graph.build_s" (full -. faros)) full;
  add p "graph.enrich_share" (ratio (get p "graph.enrich_s") whole);
  if not (Hashtbl.mem p "query.ingest_rows_per_s") then
    add p "query.ingest_rows_per_s"
      (ratio (get p "query.segment_rows") (get p "query.ingest_s"))

(* -- set-up ---------------------------------------------------------------- *)

(* Set up [k] times back to back, each from a fresh heap and interner,
   and keep the last result; the reported set-up time is the median, so
   one slow set-up does not move it.  Cheap set-ups take a larger [k].
   The set-ups run before any op, as a user's would: once ops have grown
   the heap, the same set-up runs several times slower. *)
let setup_median ~k f =
  let last = ref None and times = ref [] in
  for _ = 1 to k do
    fresh ();
    let v, dt = timed f in
    last := Some v;
    times := dt :: !times
  done;
  (Option.get !last, Stats.median !times)

(* -- the op loop ---------------------------------------------------------- *)

type loop = {
  ops : float list;  (** untraced op durations, seconds *)
  traced : float list;  (** traced op durations, seconds *)
  readings : probe list;  (** one per traced op *)
  attempted : int;
  failed : int;
}

let gc_reading p g0 g1 =
  add p "gc.minor_collections" (float (g1.Gc.minor_collections - g0.Gc.minor_collections));
  add p "gc.major_collections" (float (g1.Gc.major_collections - g0.Gc.major_collections));
  add p "gc.promoted_mwords" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6)

(* A closed loop with one client: the next op starts when the previous
   one returned.  Ops run until [seconds] have elapsed and at least five
   ran (six when traced), so even a workload whose op takes seconds has
   a lower quartile.  With [trace], untraced and traced ops alternate,
   and [between] (the workload's differential replays) runs untimed
   after each traced op, so all three sample the same stretch of the run
   and drift in the host hits them alike.  [op] returns whether its
   correctness check passed; an exception counts as a failed op. *)
let loop ?(between = ignore) ~seconds ~trace (op : probe option -> bool) =
  let min_ops = if trace then 6 else 5 in
  let deadline = now () +. seconds in
  let ops = ref [] and traced = ref [] and readings = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  while now () < deadline || !attempted < min_ops do
    let p = if trace && !attempted mod 2 = 1 then Some (probe ()) else None in
    fresh ();
    let g0 = Gc.quick_stat () in
    let ok, dt =
      timed (fun () ->
          try op p
          with e ->
            prerr_endline ("op raised: " ^ Printexc.to_string e);
            false)
    in
    let g1 = Gc.quick_stat () in
    incr attempted;
    if not ok then incr failed;
    match p with
    | None -> ops := dt :: !ops
    | Some p ->
      gc_reading p g0 g1;
      traced := dt :: !traced;
      readings := p :: !readings;
      between ()
  done;
  {
    ops = List.rev !ops;
    traced = List.rev !traced;
    readings = List.rev !readings;
    attempted = !attempted;
    failed = !failed;
  }

(* The median of each reading across the traced ops. *)
let median_readings (ps : probe list) =
  let names =
    List.sort_uniq compare
      (List.concat_map (fun p -> Hashtbl.fold (fun k _ acc -> k :: acc) p []) ps)
  in
  let m = probe () in
  List.iter
    (fun n ->
      Hashtbl.replace m n
        (Stats.median (List.map (fun p -> get p n) ps)))
    names;
  m

(* -- one workload's result --------------------------------------------------- *)

type result = {
  r_setup_s : float;
  r_loop : loop;
  r_layers : probe;  (** traced runs only: every per-layer metric *)
  r_spawned : int;  (** worker domains the workload's ops ran on *)
  r_checks : (string * bool) list;  (** run-level correctness checks *)
}

(* [trace.overhead] is the traced over the untraced op median;
   [trace.layer_sum_ratio] is the layer times summed over the traced
   time they decompose ([traced_s]). *)
let finish_trace (l : loop) (layers : probe) ~layer_sum ~traced_s =
  Hashtbl.replace layers "trace.overhead"
    (Stats.median l.traced /. Stats.median l.ops);
  Hashtbl.replace layers "trace.layer_sum_ratio" (layer_sum /. traced_s)

(* -- host facts ------------------------------------------------------------ *)

(* The value of one "Field:" line of /proc/self/status. *)
let proc_status_field field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix:field line ->
        let k = String.length field in
        Some (String.trim (String.sub line k (String.length line - k)))
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v

(* VmHWM: the process's peak resident set, set-up included. *)
let peak_rss_mb () =
  match proc_status_field "VmHWM:" with
  | Some v -> Scanf.sscanf v "%f" (fun kb -> kb /. 1024.)
  | None -> 0.

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  match proc_status_field "Cpus_allowed_list:" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun acc range ->
        match String.split_on_char '-' range with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ _ ] -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' list)

let faros_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (String.starts_with ~prefix:"FAROS_")
  |> List.sort compare

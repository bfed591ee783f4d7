(* An in-order parallel map on worker domains.

   [map] spawns its domains for one list of jobs, and they share one
   queue: an atomic index into the input.  A domain takes the next
   index, runs that job under an exception barrier (a raising job yields
   [Error] and the domain lives on) and adds the index and result to the
   [finished] queue under the one mutex.  Because a free domain always
   takes the next job, a long job (a 2000-connection netd replay next to
   a 10-tick micro scenario) holds up only the domain running it.

   The calling domain files finished results in their jobs' slots and
   waits for slot 0, then slot 1, and so on, handing each result to
   [on_result] as soon as it is in: a campaign's progress lines stream
   in input order while later jobs still run.  Only the caller waits on
   the condition, so one signal per finished job is enough.

   Only the caller can reach the slots, so a worker domain never keeps
   the finished results reachable.  When the workers stored into the
   slots themselves, a sweep1k campaign ran about 15% more major GC
   cycles at -j 1 (126-129 against 103-109) and used about 6% more CPU
   time at -j 2.

   The pool schedules WHERE and WHEN jobs run, never what they return,
   so output built from the results in input order is byte-identical for
   any worker count.

   Counters need no lock: each domain writes only its own [worker_stat],
   and the caller reads them after [Domain.join]. *)

type worker_stat = {
  mutable ws_jobs : int;  (* jobs this domain ran *)
  mutable ws_steals : int;  (* always 0: one shared queue, nothing to steal *)
  mutable ws_busy_ns : int;  (* time inside job bodies *)
  mutable ws_idle_ns : int;  (* the map's lifetime minus busy time *)
}

(* Spawning more domains than the host has cores is actively harmful in
   OCaml 5: every minor collection is a stop-the-world handshake across
   all domains, so oversubscribed domains spend their time signalling each
   other instead of running jobs (measured: a 4-worker campaign ran ~2x
   slower than serial on a 1-core host).  Cap the domains actually spawned
   at the host's recommendation; callers still report the requested
   [workers] so campaign output stays identical either way.
   FAROS_FARM_DOMAINS overrides the cap for experiments. *)
let domain_cap () =
  match Sys.getenv_opt "FAROS_FARM_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> max 1 (Domain.recommended_domain_count ())

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let map ~workers ~on_result f items =
  if workers < 1 then invalid_arg "Pool.map: workers must be >= 1";
  let jobs = Array.of_list items in
  let n = Array.length jobs in
  let next = Atomic.make 0 in
  let finished = Queue.create () in
  let mutex = Mutex.create () and filled = Condition.create () in
  let stats =
    Array.init (min workers (domain_cap ())) (fun _ ->
        { ws_jobs = 0; ws_steals = 0; ws_busy_ns = 0; ws_idle_ns = 0 })
  in
  let work w () =
    (* Replay allocates heavily in short-lived spurts; a roomier minor
       heap per domain cuts the collection (and thus cross-domain
       handshake) frequency for every worker. *)
    let g = Gc.get () in
    if g.minor_heap_size < 8 * 262144 then
      Gc.set { g with minor_heap_size = 8 * 262144 };
    let ws = stats.(w) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = now_ns () in
        let r = match f ~worker:w jobs.(i) with v -> Ok v | exception e -> Error e in
        ws.ws_busy_ns <- ws.ws_busy_ns + (now_ns () - t0);
        ws.ws_jobs <- ws.ws_jobs + 1;
        Mutex.lock mutex;
        Queue.add (i, r) finished;
        Condition.signal filled;
        Mutex.unlock mutex;
        loop ()
      end
    in
    loop ()
  in
  let t0 = now_ns () in
  let domains = List.init (Array.length stats) (fun w -> Domain.spawn (work w)) in
  let slots = Array.make n None in
  let rec take i =
    match slots.(i) with
    | Some r -> r
    | None ->
      Mutex.lock mutex;
      while Queue.is_empty finished do
        Condition.wait filled mutex
      done;
      Queue.iter (fun (j, r) -> slots.(j) <- Some r) finished;
      Queue.clear finished;
      Mutex.unlock mutex;
      take i
  in
  let results =
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join domains)
      (fun () -> List.mapi (fun i x -> on_result x (take i)) items)
  in
  let lifetime = now_ns () - t0 in
  Array.iter (fun ws -> ws.ws_idle_ns <- lifetime - ws.ws_busy_ns) stats;
  (results, Array.to_list stats)

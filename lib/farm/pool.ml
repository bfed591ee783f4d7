(* A fixed-size domain worker pool with per-worker lanes and work
   stealing.

   Each spawned domain owns a FIFO lane of jobs; submission places jobs
   round-robin across the lanes so every worker starts with a fair
   share.  A worker that drains its own lane steals the oldest job from
   the longest remaining lane instead of going idle — that is what keeps
   the fleet busy when job lengths are wildly uneven (a 2000-connection
   netd replay next to a 10-tick micro scenario).  Steals are counted
   per worker and surfaced through {!worker_stats}.

   All lanes hang off ONE mutex and ONE condition.  Job bodies run for
   milliseconds, so a single lock is nowhere near contended, and it buys
   a simple correctness story: placement, stealing, shutdown, the
   peak-depth gauge and every worker-stat mutation happen under the same
   lock, which makes {!worker_stats} an exact point-in-time snapshot
   even while the domains are live (it locks the same mutex).  No lost
   wakeups either: [submit] signals once, and a woken worker re-scans
   every lane under the mutex before it goes back to sleep.

   Jobs are closures; submitting one returns a promise fulfilled with
   the job's value or, if the job raised, its exception — a raising job
   never takes its worker down, which is the isolation property the
   campaign driver builds on.

   Shutdown is graceful by construction: workers keep popping (and
   stealing) until every lane is empty even after [shutdown] flips the
   accepting flag, so every promise submitted before shutdown is
   fulfilled before the domains are joined.

   Determinism: the pool schedules WHERE and WHEN jobs run, never what
   they return — callers that await promises in submission order (see
   {!Campaign}) observe byte-identical output for any worker count and
   any steal interleaving.

   No dependencies beyond the OCaml 5 stdlib ([Domain], [Mutex],
   [Condition]) and [Unix.gettimeofday] for the busy/idle clocks. *)

type worker_stat = {
  mutable ws_jobs : int;  (* jobs completed by this worker *)
  mutable ws_steals : int;  (* jobs taken from another worker's lane *)
  mutable ws_busy_ns : int;  (* time inside job bodies *)
  mutable ws_idle_ns : int;  (* time waiting for work *)
}

type t = {
  mutex : Mutex.t;  (* guards lanes, flags, stats, gauges *)
  work_available : Condition.t;  (* signalled on submit and on shutdown *)
  lanes : (int -> unit) Queue.t array;  (* one FIFO lane per spawned worker *)
  mutable next_lane : int;  (* round-robin placement cursor *)
  mutable accepting : bool;  (* false once shutdown has begun *)
  mutable domains : unit Domain.t list;
  stats : worker_stat array;  (* one slot per spawned domain *)
  mutable peak_depth : int;  (* deepest the lanes have been, summed *)
}

type 'a state = Pending | Fulfilled of ('a, exn) result

type 'a promise = {
  p_mutex : Mutex.t;
  p_done : Condition.t;
  mutable p_state : 'a state;
}

let spawned t = Array.length t.stats

let peak_depth t =
  Mutex.lock t.mutex;
  let d = t.peak_depth in
  Mutex.unlock t.mutex;
  d

(* An exact point-in-time snapshot per spawned worker, in worker-index
   order.  Safe while the domains run: every stat mutation happens under
   [t.mutex] and so does this copy. *)
let worker_stats t =
  Mutex.lock t.mutex;
  let snap =
    Array.to_list
      (Array.map
         (fun ws ->
           {
             ws_jobs = ws.ws_jobs;
             ws_steals = ws.ws_steals;
             ws_busy_ns = ws.ws_busy_ns;
             ws_idle_ns = ws.ws_idle_ns;
           })
         t.stats)
  in
  Mutex.unlock t.mutex;
  snap

(* Spawning more domains than the host has cores is actively harmful in
   OCaml 5: every minor collection is a stop-the-world handshake across
   all domains, so oversubscribed domains spend their time signalling each
   other instead of running jobs (measured: a 4-worker campaign ran ~2x
   slower than serial on a 1-core host).  Cap the domains actually spawned
   at the host's recommendation; the pool still *reports* the requested
   [workers] so campaign output stays identical either way.
   FAROS_FARM_DOMAINS overrides the cap for experiments. *)
let domain_cap () =
  match Sys.getenv_opt "FAROS_FARM_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> max 1 (Domain.recommended_domain_count ())

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let total_depth t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.lanes

(* Pick the next job for worker [w], called with [t.mutex] held.  Own
   lane first (FIFO); otherwise steal the oldest job from the longest
   other lane, so one long tail gets spread instead of ping-ponged. *)
let pick_job t w =
  match Queue.take_opt t.lanes.(w) with
  | Some job -> Some (job, false)
  | None ->
    let victim = ref (-1) and best = ref 0 in
    Array.iteri
      (fun i q ->
        let n = Queue.length q in
        if i <> w && n > !best then begin
          victim := i;
          best := n
        end)
      t.lanes;
    if !victim < 0 then None
    else Some (Queue.take t.lanes.(!victim), true)

let worker_loop t w =
  (* Replay allocates heavily in short-lived spurts; a roomier minor heap
     per domain cuts the collection (and thus cross-domain handshake)
     frequency for every worker. *)
  let g = Gc.get () in
  if g.minor_heap_size < 8 * 262144 then
    Gc.set { g with minor_heap_size = 8 * 262144 };
  let ws = t.stats.(w) in
  let rec loop () =
    let t0 = now_ns () in
    Mutex.lock t.mutex;
    let rec take () =
      match pick_job t w with
      | Some _ as got -> got
      | None ->
        if t.accepting then begin
          Condition.wait t.work_available t.mutex;
          take ()
        end
        else None
      (* Every lane empty and shutdown begun: exit. *)
    in
    match take () with
    | None ->
      ws.ws_idle_ns <- ws.ws_idle_ns + (now_ns () - t0);
      Mutex.unlock t.mutex
    | Some (job, stolen) ->
      let t1 = now_ns () in
      (* Wait for work — lock contention included — is idle time: the
         worker had no job to run. *)
      ws.ws_idle_ns <- ws.ws_idle_ns + (t1 - t0);
      if stolen then ws.ws_steals <- ws.ws_steals + 1;
      Mutex.unlock t.mutex;
      job w;
      let t2 = now_ns () in
      Mutex.lock t.mutex;
      ws.ws_busy_ns <- ws.ws_busy_ns + (t2 - t1);
      ws.ws_jobs <- ws.ws_jobs + 1;
      Mutex.unlock t.mutex;
      loop ()
  in
  loop ()

let create ?(workers = 1) () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let spawned = min workers (domain_cap ()) in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      lanes = Array.init spawned (fun _ -> Queue.create ());
      next_lane = 0;
      accepting = true;
      domains = [];
      stats =
        Array.init spawned (fun _ ->
            { ws_jobs = 0; ws_steals = 0; ws_busy_ns = 0; ws_idle_ns = 0 });
      peak_depth = 0;
    }
  in
  t.domains <- List.init spawned (fun w -> Domain.spawn (fun () -> worker_loop t w));
  t

(* [submit_indexed] is the general form: the job learns which worker ran
   it.  [submit] keeps the index-free interface. *)
let submit_indexed t f =
  let p = { p_mutex = Mutex.create (); p_done = Condition.create (); p_state = Pending } in
  let job w =
    (* The whole job body runs under an exception barrier: a raising job
       fulfills its promise with [Error] and the worker lives on. *)
    let result = match f ~worker:w with v -> Ok v | exception e -> Error e in
    Mutex.lock p.p_mutex;
    p.p_state <- Fulfilled result;
    Condition.broadcast p.p_done;
    Mutex.unlock p.p_mutex
  in
  Mutex.lock t.mutex;
  if not t.accepting then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add job t.lanes.(t.next_lane);
  t.next_lane <- (t.next_lane + 1) mod Array.length t.lanes;
  let depth = total_depth t in
  if depth > t.peak_depth then t.peak_depth <- depth;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex;
  p

let submit t f = submit_indexed t (fun ~worker:_ -> f ())

let await p =
  Mutex.lock p.p_mutex;
  let rec wait () =
    match p.p_state with
    | Pending ->
      Condition.wait p.p_done p.p_mutex;
      wait ()
    | Fulfilled r -> r
  in
  let r = wait () in
  Mutex.unlock p.p_mutex;
  r

let shutdown t =
  Mutex.lock t.mutex;
  let was_accepting = t.accepting in
  t.accepting <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if was_accepting then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* Run [f] over [items] on a transient pool, preserving input order. *)
let map ?workers f items =
  let pool = create ?workers () in
  Fun.protect
    ~finally:(fun () -> shutdown pool)
    (fun () ->
      let promises = List.map (fun x -> submit pool (fun () -> f x)) items in
      List.map await promises)

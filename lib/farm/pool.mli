(** A fixed-size domain worker pool with per-worker lanes and work
    stealing.

    Each spawned domain owns a FIFO lane; {!submit} places jobs
    round-robin across the lanes, and a worker that drains its own lane
    steals the oldest job from the longest remaining lane instead of
    idling.  All lanes share one mutex+condition, so scheduling and
    telemetry have a single synchronization point.  {!submit} returns a
    promise; {!await} blocks until the job ran.  A job that raises
    fulfills its promise with [Error] — it never takes its worker down.
    {!shutdown} is graceful: workers drain every lane first, so every
    promise submitted before shutdown is fulfilled.

    The pool schedules where and when jobs run, never what they return:
    callers that await promises in submission order observe
    byte-identical output for any worker count and any steal
    interleaving.  The pool itself shares nothing between jobs;
    isolation of what the jobs touch (notably the domain-local
    {!Faros_dift.Provenance.store}) is the job body's responsibility —
    see {!Campaign}.

    Telemetry: each spawned domain counts its jobs and steals and splits
    its wall time into busy (inside job bodies) and idle (waiting for
    work) nanoseconds, and the pool remembers the peak total lane depth.
    Every counter is written under the pool mutex, so {!worker_stats}
    and {!peak_depth} are exact point-in-time snapshots even while the
    domains run. *)

type t

type 'a promise

(** Per-worker counters.  Mutated only under the pool mutex. *)
type worker_stat = {
  mutable ws_jobs : int;  (** jobs completed by this worker *)
  mutable ws_steals : int;  (** jobs taken from another worker's lane *)
  mutable ws_busy_ns : int;  (** time inside job bodies *)
  mutable ws_idle_ns : int;  (** time waiting for work *)
}

val create : ?workers:int -> unit -> t
(** Spawn a pool of [workers] domains (default 1).  Raises
    [Invalid_argument] when [workers < 1].  The domains actually spawned
    are capped at the host's recommended domain count (override with
    [FAROS_FARM_DOMAINS]). *)

val spawned : t -> int
(** The domains actually spawned: [min workers (host cap)]. *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueue a job on the next lane (round-robin).  Raises
    [Invalid_argument] after {!shutdown}. *)

val submit_indexed : t -> (worker:int -> 'a) -> 'a promise
(** Like {!submit}, but the job receives the index (in
    [0 .. spawned-1]) of the worker domain that runs it — the campaign
    driver uses it to label per-job artifacts with their producer.
    With stealing on, the index is the worker that RAN the job, which
    need not be the lane it was placed on. *)

val await : 'a promise -> ('a, exn) result
(** Block until the job has run; [Error e] if the job raised [e]. *)

val shutdown : t -> unit
(** Stop accepting jobs, let the workers drain every lane, then join
    their domains.  Idempotent. *)

val worker_stats : t -> worker_stat list
(** An exact snapshot per spawned worker, in worker-index order, taken
    under the pool mutex — race-free even while the domains run. *)

val peak_depth : t -> int
(** The deepest the lanes have been (summed across lanes) since
    {!create}. *)

val map : ?workers:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map ~workers f items] runs [f] over [items] on a transient pool and
    returns results in input order (completion order never shows). *)

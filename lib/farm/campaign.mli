(** The corpus-campaign driver: run any subset of the
    {!Faros_corpus.Registry} in parallel on a {!Pool} and aggregate the
    verdicts into the evaluation's Tables II-IV matrix.

    Each sample is one isolated job: a fresh provenance interner is
    installed on the worker domain before anything runs, the analysis is
    bounded by a tick budget and a wall-clock deadline, and the outcome
    is reduced to plain data.  A raising sample is recorded as an
    {!verdict.Error} verdict, a deadline overrun as {!verdict.Timeout} —
    neither aborts the campaign.

    Determinism: results, the mismatch list and the merged metrics
    registry are produced in submission (registry) order regardless of
    job completion order, so a campaign's output is byte-identical
    across worker counts.  (Opt-in farm telemetry — [farm_metrics] —
    adds per-worker timing gauges, which naturally vary.)

    Observability: each job carries its own span profiler and bounded
    {!Faros_obs.Sink} and ships them back; the job's trace rows carry the
    worker index as [pid] and the guest pid as [tid].  The driver merges
    profiles into one fleet-wide hotspot tree and folds every job's sink
    (rows and drop count) into the campaign stream between that job's
    lifecycle and series lines — all single-threaded, in submission
    order. *)

type verdict =
  | Flagged  (** the detector flagged an in-memory injection *)
  | Clean  (** the analysis completed without a flag *)
  | Error of string  (** the sample raised; the exception, printed *)
  | Timeout  (** the wall-clock deadline elapsed mid-analysis *)

val verdict_name : verdict -> string
(** ["flagged" | "clean" | "error" | "timeout"]. *)

val verdict_detail : verdict -> string
(** The [Error] payload; [""] for every other verdict. *)

type job_result = {
  jr_id : string;
  jr_family : string;
  jr_category : string;  (** rendered {!Faros_corpus.Registry.category} *)
  jr_expected_flag : bool;
  jr_verdict : verdict;
  jr_diverged : bool;
  jr_mismatch : bool;
      (** verdict contradicts the expectation, the replay diverged, or
          the sample errored / timed out *)
  jr_record_ticks : int;
  jr_replay_ticks : int;
  jr_tick_budget : int;
      (** the effective instruction cap: the [tick_budget] override if
          given, otherwise the scenario's own [max_ticks] *)
  jr_budget_exhausted : bool;
      (** some phase ran into the cap — the run was truncated rather than
          naturally finished, whatever the verdict says *)
  jr_syscalls : int;
  jr_tainted_bytes : int;
  jr_interned_provs : int;  (** size of this job's private interner *)
  jr_graph_nodes : int;
      (** attack-graph summary; zeros when the graph is disabled or the
          job produced no verdict *)
  jr_graph_edges : int;
  jr_flag_sites : int;
  jr_slice_nodes : int;  (** union over all whodunit slices *)
  jr_slice_origins : int;
  jr_netflow_origin : bool;  (** some slice reached a NetFlow origin *)
  jr_wall_s : float;
  jr_worker : int;
      (** pool worker index that ran the job; [-1] if unknown (a failure
          outside the job's own exception barrier) *)
  jr_metrics : Faros_obs.Metrics.t;  (** this job's private registry *)
  jr_profile : Faros_obs.Profile.t;
      (** this job's span tree; {!Faros_obs.Profile.disabled} unless the
          campaign ran with [profile:true] *)
  jr_sink : Faros_obs.Sink.t;
      (** this job's [trace_event] rows, stamped with the sample id and
          the worker/guest lanes, and bounded per job with drops counted;
          {!Faros_obs.Sink.null} unless the campaign ran with a [sink] *)
  jr_segments : string list;
      (** this job's graph segment JSONL rows ({!Faros_query.Segment}
          format); empty unless run with [graph_segments:true].  Plain
          strings — the driver (or the CLI's [--graph-out]) writes them
          per sample in submission order. *)
}

type t = {
  results : job_result list;  (** submission (registry) order *)
  mismatches : string list;  (** mismatching sample ids, submission order *)
  workers : int;  (** requested *)
  spawned : int;  (** domains actually spawned (host cap) *)
  peak_depth : int;  (** deepest the job queue has been *)
  worker_stats : Pool.worker_stat list;  (** per-worker, index order *)
  wall_s : float;
  metrics : Faros_obs.Metrics.t;  (** all job registries merged *)
  profile : Faros_obs.Profile.t;
      (** all job profiles merged, plus the driver's [farm.merge] span;
          {!Faros_obs.Profile.disabled} unless run with [profile:true] *)
}

val run :
  ?workers:int ->
  ?config:Core.Config.t ->
  ?graph_segments:bool ->
  ?tick_budget:int ->
  ?deadline:float ->
  ?profile:bool ->
  ?sink:Faros_obs.Sink.t ->
  ?farm_metrics:bool ->
  ?on_progress:(completed:int -> total:int -> job_result -> unit) ->
  Faros_corpus.Registry.sample list ->
  t
(** Run the samples on a transient pool of [workers] domains (default 1).
    [config] applies to every job; every job builds its sample's attack
    graph and folds the slice summary into its result;
    [graph_segments] (default [false]) additionally streams each job's
    graph through a {!Faros_query.Segment} writer and ships the JSONL
    rows back in [jr_segments]; [tick_budget] overrides each scenario's
    own [max_ticks]; [deadline] is the per-job wall-clock budget in
    seconds.

    [profile] (default [false]) gives every job its own span profiler
    (spans [farm.job.setup] and [farm.job.run] wrap the whole pipeline's
    spans) and merges them all — plus the driver's [farm.merge] span —
    into the result's [profile].  [sink] (default null) receives the
    unified JSONL stream, written entirely driver-side after all jobs
    complete; it includes every job's trace rows with the worker index
    as [pid] and the guest pid as [tid], and its drop count includes
    what each job dropped past its own cap.
    [farm_metrics] (default [false]) adds [farm.workers.*],
    [farm.worker.<i>.*], [farm.queue.peak_depth] gauges and the
    [farm.job.wall_us] histogram to the merged registry.  [on_progress]
    runs driver-side as each result is awaited, in submission order. *)

val ok : t -> bool
(** No mismatches — the [sweep] / [campaign] exit-code criterion. *)

val glob_match : pat:string -> string -> bool
(** Shell-style glob: [*] matches any run, [?] any one character. *)

val filter :
  glob:string ->
  Faros_corpus.Registry.sample list ->
  Faros_corpus.Registry.sample list
(** Keep the samples whose id matches the glob, preserving order. *)

(** One row of the verdict matrix: per-category counts. *)
type matrix_row = {
  mr_category : string;
  mr_samples : int;
  mr_flagged : int;
  mr_clean : int;
  mr_errors : int;
  mr_timeouts : int;
  mr_mismatches : int;
}

val to_json : t -> Faros_obs.Json.t
(** The whole campaign as one JSON document: matrix, per-sample results,
    mismatch list, worker stats, merged metrics (and the merged profile
    when enabled). *)

val to_csv : t -> string
(** One CSV row per sample, registry order, with the JSON results'
    fields except [worker] (it varies with the worker count). *)

val pp_matrix : Format.formatter -> t -> unit

val pp_summary : Format.formatter -> t -> unit
(** The classic [sweep] summary: sample/mismatch counts plus one
    [mismatch: id] line per mismatch, registry order. *)

val pp_workers : Format.formatter -> t -> unit
(** The per-worker utilization breakdown: jobs, busy/idle seconds and
    busy%% per spawned worker, plus requested/spawned counts and the
    queue's peak depth. *)

(** An in-order parallel map on worker domains.

    {!map} spawns its domains for one list of jobs.  They share one
    queue, an atomic index into the input: a free domain takes the next
    job, so no job waits behind a slow one while a domain is free.  A job
    that raises yields [Error] in its slot and never takes its domain
    down.  The calling domain hands each result back in input order as
    soon as it is in, then joins the domains.

    The pool schedules where and when jobs run, never what they return:
    output built from the results in input order is byte-identical for
    any worker count.  The pool shares nothing between jobs; isolation of
    what the jobs touch (notably the domain-local
    {!Faros_dift.Provenance.store}) is the job body's responsibility —
    see {!Campaign}. *)

(** One domain's counters.  Each domain writes only its own, and {!map}
    returns them after the join, so none needs a lock. *)
type worker_stat = {
  mutable ws_jobs : int;  (** jobs this domain ran *)
  mutable ws_steals : int;
      (** always 0: every domain takes from the one shared queue, so no
          domain takes a job from another's; kept because the pipeline
          benchmark still reads it *)
  mutable ws_busy_ns : int;  (** time inside job bodies *)
  mutable ws_idle_ns : int;  (** the map's lifetime minus [ws_busy_ns] *)
}

val map :
  workers:int ->
  on_result:('a -> ('b, exn) result -> 'c) ->
  (worker:int -> 'a -> 'b) ->
  'a list ->
  'c list * worker_stat list
(** [map ~workers ~on_result f items] runs [f ~worker x] for every item
    on [min workers (host cap)] domains, [worker] being the index (from
    0) of the domain that runs the job.  The calling domain passes each
    item and its result ([Error e] if the job raised [e]) to [on_result]
    in input order, each as soon as it and every earlier result are in.
    It returns what [on_result] returned, in input order, and one stat
    per domain in index order.  The host cap is
    [Domain.recommended_domain_count]; [FAROS_FARM_DOMAINS] overrides it.
    Raises [Invalid_argument] when [workers < 1]. *)

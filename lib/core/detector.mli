(** The flagging policy: tag confluence (Sections IV and V-B).

    On every executed load the detector checks that

    - the {e read} location carries an export-table tag (the load is parsing
      linking/loading structures), and
    - the {e instruction's own code bytes} carry the configured number of
      process tags (the code crossed a process boundary) plus an
      input-source tag — netflow for network-borne payloads, or a file tag
      when the configuration also accepts disk-borne payloads (Fig. 10).

    Under a single-bit policy no provenance exists to interrogate, so the
    rule degrades to "tainted code reads the export region" — the ablation
    showing why provenance tags are load-bearing.

    Observability: the detector keeps its counters
    ([detector.loads_checked], [detector.flags], [detector.suppressed]) and
    the [detector.instr_prov_len] histogram in the registry it was created
    with, and emits [confluence_check] / [flag] / [whitelist_suppression]
    trace events (category ["detector"]) through its sink. *)

type t = {
  config : Config.t;
  report : Report.t;
  name_of_asid : int -> string;
  flag_observers : (Report.flag -> unit) Queue.t;
      (** run on every recorded flag (whitelisted ones included),
          registration order *)
  sink : Faros_obs.Sink.t;
  c_loads_checked : Faros_obs.Metrics.counter;
  c_flags : Faros_obs.Metrics.counter;
  c_suppressed : Faros_obs.Metrics.counter;
  h_instr_prov_len : Faros_obs.Metrics.histogram;
      (** provenance length of the flagged instruction's code bytes *)
}

val create :
  ?metrics:Faros_obs.Metrics.t ->
  ?sink:Faros_obs.Sink.t ->
  config:Config.t ->
  name_of_asid:(int -> string) ->
  unit ->
  t

val loads_checked : t -> int
(** Executed loads inspected so far (reads the registry counter). *)

val add_flag_observer : t -> (Report.flag -> unit) -> unit
(** Run [f] on every flag the detector records from now on, whitelisted
    ones included (observers check [f_whitelisted] themselves).  The
    attack-graph builder registers itself here. *)

val on_load : t -> tick:int -> Faros_dift.Engine.load_info -> unit
(** Check one load and record a {!Report.flag} when it matches. *)

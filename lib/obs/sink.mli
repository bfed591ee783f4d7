(** Unified streaming JSONL sink: the one event channel.

    One append-only channel all observability producers share: each line
    is a self-describing JSON object with a schema version ["v"] and a
    ["type"] tag drawn from nine event types ([metric_snapshot],
    [trace_event], [series_point], [profile_span], [job_lifecycle],
    [graph_flag], and the graph segment rows [graph_segment],
    [graph_node], [graph_edge]).  {!null} costs one branch per emission;
    the buffering sink is bounded with an explicit drop counter — loss is
    counted, never silent; the {!channel} sink streams each line straight
    to an [out_channel] and retains nothing.

    Instrumented layers (engine, shadow, detector, syscall dispatch)
    guard every emission with {!enabled}:

    {[ if Sink.enabled sink then Sink.trace_event sink ~cat ~name ~pid args ]}

    Emitters hand over members and {!Json} renders every line.  Trace
    rows are timestamped by the sink's clock (the FAROS plugin points it
    at the kernel tick) and buffered as fields, which render both the
    JSONL line and the event in {!to_chrome_json}. *)

type t

val schema_version : int

val null : t
(** The disabled sink: every emitter is a no-op. *)

val create : ?limit:int -> ?sample:string -> ?worker:int -> unit -> t
(** A buffering sink holding at most [limit] lines (default 1e6).
    [sample] is stamped on every [trace_event] row; with [worker] a row
    takes the worker index as [pid] and the guest pid as [tid] (a
    campaign job's lanes), otherwise both are the guest pid. *)

val channel : out_channel -> t
(** A streaming sink: each line goes straight to the channel (with a
    trailing newline) and is not retained — {!lines} and {!contents}
    return nothing.  The caller owns the channel (and closes it). *)

val enabled : t -> bool

val events : t -> int
(** Lines buffered (or streamed) so far. *)

val dropped : t -> int
(** Lines rejected because the buffer was full, plus the drops of every
    sink {!merge}d in. *)

val lines : t -> string list
(** Buffered lines, oldest first; [[]] for a channel sink. *)

val contents : t -> string
(** The whole stream, newline-terminated; [""] when empty or channel. *)

val set_clock : t -> (unit -> int) -> unit
(** Set the [trace_event] timestamp source (no-op on {!null}; the
    default clock reads 0). *)

val merge : into:t -> t -> unit
(** Append the source's buffered lines to [into] (under [into]'s limit)
    and add the source's drop count to [into]'s. *)

(** {2 Typed emitters} — each appends exactly one line. *)

val metric_snapshot : t -> source:string -> Metrics.t -> unit
(** A whole registry, sorted by name as [Metrics.to_json] renders it. *)

val trace_event :
  t -> cat:string -> name:string -> pid:int -> (string * Json.t) list -> unit
(** One structured event from an instrumented layer: [pid] is the guest
    process (pid or asid), [ts] comes from the clock, and [args] should
    hold scalar values ([Int], [Str], [Bool]). *)

val series_point :
  t -> sample:string -> columns:string list -> row:int array -> unit

val profile_span : t -> source:string -> Profile.span -> unit

val job_lifecycle :
  t ->
  job:string ->
  worker:int ->
  event:string ->
  ?verdict:string ->
  ?wall_s:float ->
  unit ->
  unit
(** [event] is ["submit"], ["start"] or ["finish"]; [verdict] and
    [wall_s] accompany ["finish"]. *)

val graph_flag :
  t ->
  sample:string ->
  flag_sites:int ->
  nodes:int ->
  edges:int ->
  slice_nodes:int ->
  slice_origins:int ->
  netflow_origin:bool ->
  unit

(** {2 Graph segment rows} — the streaming forensic store's on-disk
    format ([lib/query]).  Every row carries the producing run id and a
    per-run monotone sequence number; the (run, seq) pair is the
    idempotence key stores deduplicate re-ingested segments by. *)

val graph_segment :
  t -> run:string -> seq:int -> event:string -> nodes:int -> edges:int -> unit
(** Segment boundary marker; [event] is ["begin"], ["end"] or ["final"],
    with the counts spilled in the segment just closed. *)

val graph_node :
  t ->
  run:string ->
  seq:int ->
  ord:int ->
  ?ident:string ->
  ?kind:string ->
  fields:(string * Json.t) list ->
  unit ->
  unit
(** One node row: [run], [seq], [ord], then [ident] and [kind] when
    given, then [fields].  Full rows carry [ident], [kind] and the
    kind-specific fields; patch rows (attribute refinements to an
    already-spilled node) carry just [ord] and the changed fields. *)

val graph_edge :
  t ->
  run:string ->
  seq:int ->
  eord:int ->
  src:int ->
  dst:int ->
  kind:string ->
  tick:int ->
  last_tick:int ->
  count:int ->
  bytes:int ->
  unit
(** One coalesced edge row; [src]/[dst] are node ordinals, [eord] the
    writer-local edge creation ordinal (merge on minimum recovers the
    resident insertion order). *)

(** {2 Chrome trace_event export} *)

val trace_rows : t -> Json.t list
(** The buffered [trace_event] rows as the values {!lines} renders. *)

val trace_count : t -> int
(** [List.length (trace_rows t)], without building the rows. *)

val to_chrome_json : t -> string
(** The buffered [trace_event] rows as one Chrome trace_event JSON
    document (chrome://tracing, Perfetto): one instant event per row,
    with [pid] and [tid] as distinct fields and [otherData] carrying the
    row count and {!dropped}. *)

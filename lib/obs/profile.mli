(** Hierarchical span profiler.

    Nestable named spans aggregated into a call tree keyed on the full
    parent chain: entering ["kernel.syscall"] under ["replay"] and under
    ["record"] produces two distinct nodes.  Each node accumulates call
    count, inclusive wall time, and minor/major GC allocation-word
    deltas; self time is derived at render time.

    {!disabled} is a constant: instrumentation points guarded by it cost
    one branch and allocate nothing, so they can live in per-syscall
    paths unconditionally.  Spans are meant for phases and syscalls;
    per-instruction work belongs in {!Metrics} counters, which do not
    distort the replay they measure.  The clock is injectable for
    deterministic tests.  Enabled-mode measurements include the
    profiler's own overhead (a frame allocation and two clock/GC reads
    per span). *)

type t

type span = {
  sp_path : string;  (** ["replay/kernel.syscall"] — path from the root *)
  sp_name : string;
  sp_depth : int;  (** 0 for top-level spans *)
  sp_count : int;
  sp_total_ns : int;  (** inclusive *)
  sp_self_ns : int;  (** total minus children's totals, clamped at 0 *)
  sp_minor_words : int;  (** inclusive minor-heap words allocated *)
  sp_major_words : int;  (** inclusive major-heap words allocated *)
  sp_self_minor_words : int;
}

val disabled : t
(** The zero-cost profiler: every operation is a single branch. *)

val create : ?clock:(unit -> int) -> unit -> t
(** An enabled profiler. [clock] returns monotonically non-decreasing
    nanoseconds; the default reads wall time. Inject a fake for
    deterministic tests. *)

val enabled : t -> bool

val enter : t -> string -> unit
(** Open a span named [name] nested under the currently open span. *)

val exit : t -> unit
(** Close the innermost open span. Unbalanced exits are ignored. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span, closing it on
    exceptions too, together with any span [f] opened with {!enter} and
    left open. On {!disabled} this is exactly [f ()]. *)

val spans : t -> span list
(** Preorder walk, children in first-entered order — deterministic for a
    deterministic workload regardless of clock readings. Empty for
    {!disabled}. *)

val total_ns : t -> int
(** Sum of the top-level spans' inclusive times: the coverage
    denominator. *)

val merge : into:t -> t -> unit
(** Fold the second tree into [into], adding counts/times/allocation at
    matching paths and creating missing nodes. Commutative and
    associative in the accumulated numbers; used to fold per-job
    profiles into a campaign-wide table. No-op if either side is
    {!disabled}. *)

val pp_tree : Format.formatter -> t -> unit
(** Indented call tree, first-entered order. *)

val pp_hotspots : ?top:int -> Format.formatter -> t -> unit
(** Flat table sorted by self time descending (ties by path), with a
    self% column against {!total_ns}. [top] defaults to 20. *)

val span_members : span -> (string * Json.t) list
(** [path], [count], [total_ns], [self_ns], [minor_words], [major_words]:
    a span as {!to_json} and the sink's [profile_span] row render it. *)

val to_json : t -> Json.t
(** [{"profile":{"total_ns":n,"spans":[...]}}], spans in {!spans} order. *)

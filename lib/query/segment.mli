(** The bounded-memory graph consumer: {!Faros_graph.Delta} stream in,
    JSONL segment rows out through {!Faros_obs.Sink}.

    Keeps only the live subgraph resident (un-retired nodes, coalesced
    edges touching them) and spills rows on retirement, so resident size
    is O(live entities) rather than O(trace length).  Attribute deltas
    for already-spilled nodes become patch rows; re-observed edges start
    fresh rows — the store re-merges both at read time, making segment
    splits invisible.  Every row carries (run, seq) as the idempotence
    key, and edge rows a writer-local creation ordinal whose min-merge
    recovers resident edge insertion order. *)

type t

type stats = {
  st_spilled_nodes : int;  (** full node rows written *)
  st_spilled_edges : int;
  st_patch_rows : int;
  st_peak_live_nodes : int;  (** the bounded-memory claim, measured *)
  st_peak_live_edges : int;
  st_rows : int;  (** all rows including markers *)
  st_segments : int;
}

val writer : ?seg_rows:int -> sink:Faros_obs.Sink.t -> run:string -> unit -> t
(** A writer spilling to [sink] under run id [run].  Segments rotate
    (an ["end"] marker) every [seg_rows] rows (default 2048). *)

val consume : t -> Faros_graph.Delta.t -> unit
(** Feed one delta — wire as [Build.create ~consumer:(Segment.consume w)]. *)

val close : t -> unit
(** Drain every still-live node and edge (deterministic order: nodes by
    ordinal, edges by creation ordinal) and write the ["final"] marker.
    Idempotent. *)

val stats : t -> stats

(** {2 Reading node rows back}

    The inverse of the writer's node rendering, kept beside it so a
    node row's field names live in this one module. *)

val merge_row :
  (string, Faros_obs.Json.t) Hashtbl.t -> (string * Faros_obs.Json.t) list -> unit
(** Fold one [graph_node] row's members into its ordinal's merged fields
    under commutative per-field operators ([docs/query.md]). *)

val decode_node :
  (string, Faros_obs.Json.t) Hashtbl.t ->
  (Faros_graph.Delta.seed * (int -> Faros_graph.Delta.t list), string) result
(** Merged fields back to [(seed, attrs)]: [attrs ord] are the attribute
    deltas that bring the node a [D_node] with [seed] interns under
    ordinal [ord] to the merged state.  [Error] names a missing field or
    an unknown kind. *)

(** Deterministic exporters: Graphviz DOT and JSON.

    Both walk nodes in id order and edges in insertion order; since ids
    come from a deterministic replay, a given sample always exports
    byte-identical output.  The JSON is well-formed under the
    {!Faros_obs.Json} checker (the [faros check-json] contract). *)

val to_dot : Graph.t -> string
(** The whole graph as a [digraph]: one [nK] statement per node (shape
    and color by kind), one edge statement per edge with a
    [kind xCOUNT BYTESB @TICK] label.  Injection edges are red. *)

val to_json : ?slices:Slice.t list -> Graph.t -> Faros_obs.Json.t
(** One [{"graph":{...}}] document: sample, counts, nodes with
    kind-specific fields, edges, and the given slices (flag id, origins,
    node ids, rendered chains). *)

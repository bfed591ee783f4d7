(** Whodunit slicing: from a flagged load back to the input that caused
    it, and forward reachability from any node.

    A slice is the minimal temporal subgraph connecting a flag site's
    input origins to the flag: a backward tick-bounded sweep collects
    everything that could have influenced the flagged load, then a
    forward sweep from the origins (network flows, or — for file-borne
    payloads like process hollowing — source files nobody in the cone
    wrote) intersects it.  See docs/graph.md for the exact semantics. *)

type t = {
  sl_flag : Graph.node;  (** the flag site the slice explains *)
  sl_nodes : int list;  (** slice node ids, ascending *)
  sl_edges : Graph.edge list;  (** induced subgraph, insertion order *)
  sl_origins : Graph.node list;  (** input origins, id order *)
  sl_chains : Graph.node list list;
      (** one rendered chain per origin, origin first, flag last — the
          graph form of Table II's provenance lines *)
}

val slices : Graph.t -> t list
(** One slice per flag site, id order; empty when nothing was flagged. *)

val has_netflow_origin : t -> bool
(** Did the slice reach a network-flow origin?  True for every
    network-borne attack in the corpus. *)

val forward : Graph.t -> Graph.node -> Graph.node list
(** Forward reachability ("what did this flow touch"): every node
    reachable from [start], id order, [start] included. *)

val render_chain : Graph.node list -> string
(** Node labels joined with [" -> "], Table II style. *)

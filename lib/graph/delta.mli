(** The typed construction stream behind every graph consumer.

    The online builder ({!Build}) narrates graph construction as deltas:
    node first-encounters carrying a builder-assigned ordinal (the
    resident node id) and a run-independent stable identity string,
    attribute refinements, edge observations, and retirement hints for
    quiescent subgraphs.  {!resident}/{!apply} replay the stream into a
    {!Graph.t}; the segment writer in [lib/query] instead keeps only the
    live subgraph resident and spills retired rows to JSONL, which the
    store decodes back into deltas and replays through {!apply}. *)

(** Immutable node payload at first encounter — consumers copy what they
    keep, so no mutable state is shared across consumers. *)
type seed =
  | S_flow of Graph.flow
  | S_proc of { pid : int; name : string }
  | S_file of { name : string; version : int }
  | S_module of { pid : int; image : string; base : int }
  | S_region of {
      pid : int;
      process : string;
      vaddr : int;
      len : int;
      types : string list;
    }
  | S_flag of { process : string; pc : int; tick : int }

type t =
  | D_node of { ord : int; ident : string; seed : seed }
  | D_name of { ord : int; name : string }
  | D_version of { ord : int; version : int }
  | D_exit of { ord : int; code : int }
  | D_taint of { ord : int; tainted : int; netflow : int }
  | D_edge of {
      src : int;
      dst : int;
      kind : Graph.edge_kind;
      tick : int;
      last_tick : int;
      count : int;
      bytes : int;
    }
      (** [count] interactions over [tick..last_tick], in the coalesced
          shape {!Graph.add_edge} takes; the builder emits each
          interaction as [count = 1], [last_tick = tick]. *)
  | D_retire of { ord : int }

val seed_kind : seed -> string
(** The {!Graph.kind_name} of the node a seed interns. *)

(** {2 The resident consumer} *)

type resident

val resident : Graph.t -> resident
(** A consumer applying the stream into [graph]. *)

val apply : resident -> t -> unit
(** Replay one delta — the only code that turns a seed into a graph node.
    With ordinals arriving in first-encounter order (which the builder
    guarantees) resident node ids equal ordinals; retirement hints are
    no-ops.  @raise Invalid_argument on an ordinal no [D_node] named. *)

(** The whole-system provenance graph: the forensic artifact behind Fig. 4.

    Nodes are the system objects FAROS's tags name — network flows,
    processes, files, loaded modules (plus the kernel export directory),
    tainted memory regions and flag sites.  Edges are tick-stamped
    interactions pointing in the direction data/influence moved: a flow
    {e received}-into a process, a parent {e spawned} a child, an injector
    {e injected-into} its victim, a source {e tainted} a region or a flag.

    Nodes intern by identity key and are numbered in first-encounter
    order; the graph is built from a deterministic replay, so ids — and
    every export derived from them — are deterministic.  Repeated
    interactions between one pair collapse into a single edge carrying a
    count, a byte total and a [first..last] tick range. *)

type flow = Faros_os.Types.flow

type proc_info = {
  p_pid : int;
  mutable p_name : string;
  mutable p_exit_code : int option;
  mutable p_tainted_bytes : int;  (** filled in by offline enrichment *)
  mutable p_netflow_bytes : int;
}

type file_info = {
  fi_name : string;
  mutable fi_version_lo : int;  (** versions seen, as a range — the fs
      bumps the version per open, so one node covers all of them *)
  mutable fi_version_hi : int;
}

type module_info = { m_pid : int; m_image : string; m_base : int }

type region_info = {
  r_pid : int;
  r_process : string;
  r_vaddr : int;
  r_len : int;
  r_types : string list;  (** tag types present, rendered *)
}

type flag_info = { fl_process : string; fl_pc : int; fl_tick : int }

type node_kind =
  | Flow of flow
  | Process of proc_info
  | File of file_info
  | Module of module_info
  | Region of region_info
  | Flag_site of flag_info

type node = { n_id : int; n_kind : node_kind }

type edge_kind =
  | Spawned
  | Suspended
  | Resumed
  | Connected
  | Received
  | Sent
  | Read
  | Wrote
  | Mapped
  | Injected_into
  | Tainted_by
  | Flagged

type edge = {
  e_src : int;
  e_dst : int;
  e_kind : edge_kind;
  e_tick : int;  (** first occurrence *)
  mutable e_last_tick : int;
  mutable e_count : int;
  mutable e_bytes : int;
}

(** Node identity keys (see the interning rules above). *)
type key =
  | K_flow of flow
  | K_proc of int
  | K_file of string
  | K_module of int * string
  | K_region of int * int
  | K_flag of string * int

type t

val create : ?metrics:Faros_obs.Metrics.t -> sample:string -> unit -> t
(** An empty graph for one sample.  With [metrics], the [graph.nodes] and
    [graph.edges] counters are registered and bumped as the graph grows. *)

val sample : t -> string
val node_count : t -> int
val edge_count : t -> int

val nodes : t -> node list
(** All nodes, id (first-encounter) order. *)

val edges : t -> edge list
(** All edges, insertion order. *)

val find : t -> key -> node option

(** {2 Insertion} — graphs are built by {!Delta.apply}, the one caller
    that turns node seeds into payloads. *)

val add_node : t -> node_kind -> node
(** Intern a payload under its identity key, numbered in first-encounter
    order.  A key already present returns the existing node untouched. *)

val add_edge :
  t ->
  src:int ->
  dst:int ->
  kind:edge_kind ->
  tick:int ->
  last_tick:int ->
  count:int ->
  bytes:int ->
  unit
(** The one edge insertion, between node ids, with coalesced attributes
    (one interaction is [~count:1 ~last_tick:tick]).  An edge with the
    same (src, dst, kind) already present absorbs it: last tick widens,
    counts and bytes accumulate, the first tick stays. *)

val flag_nodes : t -> node list
(** The flag-site nodes, id order — the slice entry points. *)

val kind_name : node -> string
val edge_kind_name : edge_kind -> string

val edge_kind_of_name : string -> edge_kind option
(** The inverse of {!edge_kind_name}. *)

val node_label : node -> string
(** Short human label ("inject_client.exe (pid 100)", "NetFlow a:p -> b:q",
    "flag 0x10000042 in notepad.exe") used by every renderer. *)

val restrict : t -> keep:(node -> bool) -> t
(** The subgraph induced by [keep], densely renumbered in the original id
    order (a view for export: node payloads are shared). *)

val in_edges : t -> edge list array
(** Per-node incoming adjacency ([arr.(i)] = edges into node [i],
    insertion order), derived on demand. *)

val out_edges : t -> edge list array

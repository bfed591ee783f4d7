(* The whole-system provenance graph: the forensic artifact behind Fig. 4.

   Nodes are the system objects FAROS's tags name (flows, processes,
   files, modules, tainted regions, flag sites); edges are tick-stamped
   interactions pointing in the direction data/influence moved.  Nodes are
   interned by identity key and numbered in first-encounter order; since
   the graph is built from a deterministic replay, ids — and therefore
   every export — are deterministic too.

   Repeated interactions between the same pair (the same flow delivering
   ten chunks to the same process) collapse into one edge carrying a
   count, a byte total and a [first..last] tick range, which is what keeps
   the graph analyst-sized. *)

type flow = Faros_os.Types.flow

type proc_info = {
  p_pid : int;
  mutable p_name : string;
  mutable p_exit_code : int option;
  mutable p_tainted_bytes : int;
  mutable p_netflow_bytes : int;
}

type file_info = {
  fi_name : string;
  mutable fi_version_lo : int;
  mutable fi_version_hi : int;
}

type module_info = { m_pid : int; m_image : string; m_base : int }

type region_info = {
  r_pid : int;
  r_process : string;
  r_vaddr : int;
  r_len : int;
  r_types : string list;
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
  e_tick : int;  (* first occurrence *)
  mutable e_last_tick : int;
  mutable e_count : int;
  mutable e_bytes : int;
}

(* The identity under which a node interns: one node per flow 4-tuple,
   per pid, per file name (versions collapse into a range attribute —
   the filesystem bumps the version on every open, so keying on it would
   sever write->read chains), per (pid, image), per (pid, region start),
   and per (process, pc) flag site — the same key {!Core.Report}
   deduplicates sites by. *)
type key =
  | K_flow of flow
  | K_proc of int
  | K_file of string
  | K_module of int * string
  | K_region of int * int
  | K_flag of string * int

type t = {
  g_sample : string;
  mutable rev_nodes : node list;  (* newest first *)
  mutable n_nodes : int;
  nodes_by_key : (key, node) Hashtbl.t;
  mutable rev_edges : edge list;  (* newest first *)
  mutable n_edges : int;
  edges_by_key : (int * int * edge_kind, edge) Hashtbl.t;
  c_nodes : Faros_obs.Metrics.counter option;
  c_edges : Faros_obs.Metrics.counter option;
}

let create ?metrics ~sample () =
  let reg name =
    Option.map (fun m -> Faros_obs.Metrics.counter m name) metrics
  in
  {
    g_sample = sample;
    rev_nodes = [];
    n_nodes = 0;
    nodes_by_key = Hashtbl.create 64;
    rev_edges = [];
    n_edges = 0;
    edges_by_key = Hashtbl.create 64;
    c_nodes = reg "graph.nodes";
    c_edges = reg "graph.edges";
  }

let sample t = t.g_sample
let node_count t = t.n_nodes
let edge_count t = t.n_edges
let nodes t = List.rev t.rev_nodes
let edges t = List.rev t.rev_edges
let find t key = Hashtbl.find_opt t.nodes_by_key key

let key_of_kind = function
  | Flow f -> K_flow f
  | Process p -> K_proc p.p_pid
  | File fi -> K_file fi.fi_name
  | Module m -> K_module (m.m_pid, m.m_image)
  | Region r -> K_region (r.r_pid, r.r_vaddr)
  | Flag_site fl -> K_flag (fl.fl_process, fl.fl_pc)

(* The one node insertion: a payload whose key is already present returns
   the existing node untouched. *)
let add_node t kind =
  let key = key_of_kind kind in
  match Hashtbl.find_opt t.nodes_by_key key with
  | Some n -> n
  | None ->
    let n = { n_id = t.n_nodes; n_kind = kind } in
    t.n_nodes <- t.n_nodes + 1;
    t.rev_nodes <- n :: t.rev_nodes;
    Hashtbl.replace t.nodes_by_key key n;
    Option.iter Faros_obs.Metrics.incr t.c_nodes;
    n

(* The one edge insertion: the caller supplies coalesced attributes (a
   single observation is [count = 1], [last_tick = tick]).  A pre-existing
   (src, dst, kind) edge absorbs them — last tick widens, counts and bytes
   accumulate, the first tick stays — so online observations, segment
   rows split across segments and restricted copies all merge alike. *)
let add_edge t ~src ~dst ~kind ~tick ~last_tick ~count ~bytes =
  let k = (src, dst, kind) in
  match Hashtbl.find_opt t.edges_by_key k with
  | Some e ->
    if last_tick > e.e_last_tick then e.e_last_tick <- last_tick;
    e.e_count <- e.e_count + count;
    e.e_bytes <- e.e_bytes + bytes
  | None ->
    let e =
      {
        e_src = src;
        e_dst = dst;
        e_kind = kind;
        e_tick = tick;
        e_last_tick = last_tick;
        e_count = count;
        e_bytes = bytes;
      }
    in
    t.rev_edges <- e :: t.rev_edges;
    t.n_edges <- t.n_edges + 1;
    Hashtbl.replace t.edges_by_key k e;
    Option.iter Faros_obs.Metrics.incr t.c_edges

let flag_nodes t =
  List.filter (fun n -> match n.n_kind with Flag_site _ -> true | _ -> false)
    (nodes t)

let kind_name n =
  match n.n_kind with
  | Flow _ -> "flow"
  | Process _ -> "process"
  | File _ -> "file"
  | Module _ -> "module"
  | Region _ -> "region"
  | Flag_site _ -> "flag"

(* The edge kinds' rendered names, both directions from one table. *)
let edge_kinds =
  [
    (Spawned, "spawned");
    (Suspended, "suspended");
    (Resumed, "resumed");
    (Connected, "connected");
    (Received, "received");
    (Sent, "sent");
    (Read, "read");
    (Wrote, "wrote");
    (Mapped, "mapped");
    (Injected_into, "injected-into");
    (Tainted_by, "tainted-by");
    (Flagged, "flagged");
  ]

let edge_kind_name k = List.assq k edge_kinds

let edge_kind_of_name s =
  List.find_map (fun (k, n) -> if n = s then Some k else None) edge_kinds

let node_label n =
  match n.n_kind with
  | Flow f ->
    Printf.sprintf "NetFlow %s:%d -> %s:%d"
      (Faros_os.Types.Ip.to_string f.src_ip)
      f.src_port
      (Faros_os.Types.Ip.to_string f.dst_ip)
      f.dst_port
  | Process p -> Printf.sprintf "%s (pid %d)" p.p_name p.p_pid
  | File fi ->
    if fi.fi_version_lo = fi.fi_version_hi then
      Printf.sprintf "%s (v%d)" fi.fi_name fi.fi_version_lo
    else Printf.sprintf "%s (v%d..%d)" fi.fi_name fi.fi_version_lo fi.fi_version_hi
  | Module m ->
    if m.m_pid = 0 then m.m_image
    else Printf.sprintf "%s @0x%08X (pid %d)" m.m_image m.m_base m.m_pid
  | Region r -> Printf.sprintf "%s 0x%08X+%d" r.r_process r.r_vaddr r.r_len
  | Flag_site fl -> Printf.sprintf "flag 0x%08X in %s" fl.fl_pc fl.fl_process

(* The kept nodes are re-interned in id order, so the restricted graph is
   renumbered densely but keeps the relative order (and shares the
   original's mutable node payloads — it is a view for export, not an
   independent copy). *)
let restrict t ~keep =
  let g = create ~sample:t.g_sample () in
  let remap = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if keep n then begin
        let n' = add_node g n.n_kind in
        Hashtbl.replace remap n.n_id n'.n_id
      end)
    (nodes t);
  List.iter
    (fun e ->
      match (Hashtbl.find_opt remap e.e_src, Hashtbl.find_opt remap e.e_dst) with
      | Some src, Some dst ->
        add_edge g ~src ~dst ~kind:e.e_kind ~tick:e.e_tick
          ~last_tick:e.e_last_tick ~count:e.e_count ~bytes:e.e_bytes
      | _ -> ())
    (edges t);
  g

(* Per-node adjacency, derived on demand: index [i] lists the edges into
   (resp. out of) node [i], in edge-insertion order. *)
let in_edges t =
  let arr = Array.make (max 1 t.n_nodes) [] in
  List.iter (fun e -> arr.(e.e_dst) <- e :: arr.(e.e_dst)) t.rev_edges;
  arr

let out_edges t =
  let arr = Array.make (max 1 t.n_nodes) [] in
  List.iter (fun e -> arr.(e.e_src) <- e :: arr.(e.e_src)) t.rev_edges;
  arr

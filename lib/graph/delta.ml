(* The typed construction stream behind every graph consumer.

   The online builder no longer mutates one resident graph: it narrates
   construction as a stream of deltas — node first-encounters (with the
   builder-assigned ordinal and a run-independent stable identity),
   attribute refinements, edge observations, and retirement hints for
   subgraphs that have gone quiescent.  Consumers choose their
   memory/fidelity trade-off:

   - {!resident} applies the stream to a {!Graph.t} (nodes in ordinal
     order, edges coalesced by (src, dst, kind));
   - the segment writer in [lib/query] keeps only the live subgraph
     resident and spills retired rows to JSONL segments, which the store
     decodes back into deltas and applies through {!resident} again.

   Ordinals are assigned at first encounter and never reused, so a graph
   reconstructed from segments renumbers back to the resident ids and the
   two exports compare byte-for-byte. *)

(* Immutable node payload at first encounter; consumers copy what they
   keep, so no mutable state is ever shared across consumers. *)
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
      (* first encounter of an entity: ordinal = resident node id *)
  | D_name of { ord : int; name : string }
      (* a process referenced before its name was known resolves it *)
  | D_version of { ord : int; version : int }
      (* a file observed at a version outside its known range *)
  | D_exit of { ord : int; code : int }
  | D_taint of { ord : int; tainted : int; netflow : int }
      (* offline enrichment: per-process taint totals *)
  | D_edge of {
      src : int;
      dst : int;
      kind : Graph.edge_kind;
      tick : int;
      last_tick : int;
      count : int;
      bytes : int;
    }
      (* [count] interactions over [tick..last_tick] (the builder emits one
         at a time); consumers merge by (src, dst, kind) *)
  | D_retire of { ord : int }
      (* quiescence hint: the entity can no longer originate new state
         (closed flow, exited process); bounded-memory consumers may
         spill it.  Re-references later (a flag's provenance naming a
         retired flow) reuse the same ordinal via attribute deltas. *)

let seed_kind = function
  | S_flow _ -> "flow"
  | S_proc _ -> "process"
  | S_file _ -> "file"
  | S_module _ -> "module"
  | S_region _ -> "region"
  | S_flag _ -> "flag"

(* -- the resident consumer ------------------------------------------------ *)

type resident = {
  r_graph : Graph.t;
  r_by_ord : (int, Graph.node) Hashtbl.t;
}

let resident graph = { r_graph = graph; r_by_ord = Hashtbl.create 256 }

let node_exn r ord =
  match Hashtbl.find_opt r.r_by_ord ord with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Delta.apply: unknown ordinal %d" ord)

let proc r ord f =
  match (node_exn r ord).n_kind with Graph.Process p -> f p | _ -> ()

(* The only code that turns seeds into graph nodes: D_node interns the
   seed's payload (the builder's ordinals arrive in first-encounter order,
   so resident ids equal ordinals), refinements mutate the interned
   payloads — a process referenced before its name was known picks it up
   once, a file's version range widens — and edges coalesce through
   {!Graph.add_edge}.  The store rebuilds run graphs by applying decoded
   segment rows here too. *)
let apply r delta =
  let g = r.r_graph in
  match delta with
  | D_node { ord; seed; _ } ->
    let kind : Graph.node_kind =
      match seed with
      | S_flow f -> Flow f
      | S_proc { pid; name } ->
        Process
          {
            p_pid = pid;
            p_name = name;
            p_exit_code = None;
            p_tainted_bytes = 0;
            p_netflow_bytes = 0;
          }
      | S_file { name; version } ->
        File { fi_name = name; fi_version_lo = version; fi_version_hi = version }
      | S_module { pid; image; base } ->
        Module { m_pid = pid; m_image = image; m_base = base }
      | S_region { pid; process; vaddr; len; types } ->
        Region
          {
            r_pid = pid;
            r_process = process;
            r_vaddr = vaddr;
            r_len = len;
            r_types = types;
          }
      | S_flag { process; pc; tick } ->
        Flag_site { fl_process = process; fl_pc = pc; fl_tick = tick }
    in
    Hashtbl.replace r.r_by_ord ord (Graph.add_node g kind)
  | D_name { ord; name } ->
    proc r ord (fun p -> if p.p_name = "?" && name <> "?" then p.p_name <- name)
  | D_version { ord; version } -> (
    match (node_exn r ord).n_kind with
    | Graph.File fi ->
      if version < fi.fi_version_lo then fi.fi_version_lo <- version;
      if version > fi.fi_version_hi then fi.fi_version_hi <- version
    | _ -> ())
  | D_exit { ord; code } -> proc r ord (fun p -> p.p_exit_code <- Some code)
  | D_taint { ord; tainted; netflow } ->
    proc r ord (fun p ->
        p.p_tainted_bytes <- tainted;
        p.p_netflow_bytes <- netflow)
  | D_edge { src; dst; kind; tick; last_tick; count; bytes } ->
    Graph.add_edge g ~src:(node_exn r src).n_id ~dst:(node_exn r dst).n_id
      ~kind ~tick ~last_tick ~count ~bytes
  | D_retire _ -> ()

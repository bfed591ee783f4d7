(* The bounded-memory graph consumer: a {!Faros_graph.Delta} stream in,
   JSONL segment rows out.

   The writer keeps only the *live* subgraph resident — nodes not yet
   retired, plus the coalesced edges touching them — and spills rows
   through {!Faros_obs.Sink} the moment the builder signals quiescence
   (a closed flow, an exited process).  On a long server trace the live
   set is the handful of open connections and running processes, not the
   thousands the trace accumulated: resident size is O(live entities).

   Spilling is lossless with respect to the resident graph:

   - a node row carries the ordinal (= resident node id), the stable
     identity, the kind and all attributes at spill time;
   - attribute deltas arriving *after* a node was spilled (offline
     enrichment touches exited processes) become patch rows — ordinal
     plus changed fields only — merged back at read time, so the writer
     never keeps tombstones;
   - an edge re-observed after its row was flushed starts a fresh live
     edge; the store re-merges the rows by (src, dst, kind), so splits
     across segments are invisible.

   Every row carries (run, per-run sequence number): the idempotence key
   re-ingestion deduplicates on.  Edge rows also carry a writer-local
   creation ordinal [eord]; its absolute value is meaningless, but
   min-merging it recovers the resident graph's edge insertion order. *)

type live_node = {
  ln_ord : int;
  ln_ident : string;
  ln_seed : Faros_graph.Delta.seed;
  mutable ln_name : string;  (* processes: latest name *)
  mutable ln_exit : int option;
  mutable ln_tainted : int;
  mutable ln_netflow : int;
  mutable ln_vlo : int;  (* files: version range *)
  mutable ln_vhi : int;
}

type live_edge = {
  le_eord : int;
  le_src : int;
  le_dst : int;
  le_kind : Faros_graph.Graph.edge_kind;
  le_tick : int;
  mutable le_last : int;
  mutable le_count : int;
  mutable le_bytes : int;
}

type edge_key = int * int * Faros_graph.Graph.edge_kind

(* Growable bitset over dense ordinals: the "already spilled?" record
   costs one bit per entity ever seen instead of a hashtable entry, so
   the only per-total-entity state in a writer is negligible next to the
   live subgraph. *)
module Bits = struct
  type t = { mutable bytes : Bytes.t }

  let create () = { bytes = Bytes.make 64 '\000' }

  let ensure t i =
    let need = (i / 8) + 1 in
    if need > Bytes.length t.bytes then begin
      let b = Bytes.make (max need (2 * Bytes.length t.bytes)) '\000' in
      Bytes.blit t.bytes 0 b 0 (Bytes.length t.bytes);
      t.bytes <- b
    end

  let add t i =
    ensure t i;
    let j = i / 8 in
    Bytes.set t.bytes j
      (Char.chr (Char.code (Bytes.get t.bytes j) lor (1 lsl (i mod 8))))

  let mem t i =
    i / 8 < Bytes.length t.bytes
    && Char.code (Bytes.get t.bytes (i / 8)) land (1 lsl (i mod 8)) <> 0
end

type stats = {
  st_spilled_nodes : int;
  st_spilled_edges : int;
  st_patch_rows : int;
  st_peak_live_nodes : int;
  st_peak_live_edges : int;
  st_rows : int;
  st_segments : int;
}

type t = {
  w_sink : Faros_obs.Sink.t;
  w_run : string;
  w_seg_rows : int;  (* rotation threshold *)
  mutable w_seq : int;
  mutable w_rows_in_seg : int;
  mutable w_seg_nodes : int;  (* rows in the open segment *)
  mutable w_seg_edges : int;
  mutable w_segments : int;
  w_nodes : (int, live_node) Hashtbl.t;  (* by ordinal *)
  w_edges : (edge_key, live_edge) Hashtbl.t;
  w_incident : (int, edge_key list ref) Hashtbl.t;  (* node ord -> edge keys *)
  mutable w_inc_cells : int;  (* total incident cells, live or dead *)
  w_spilled : Bits.t;  (* ordinals already written *)
  mutable w_next_eord : int;
  mutable w_spilled_nodes : int;
  mutable w_spilled_edges : int;
  mutable w_patch_rows : int;
  mutable w_peak_nodes : int;
  mutable w_peak_edges : int;
  mutable w_closed : bool;
}

let next_seq t =
  let s = t.w_seq in
  t.w_seq <- s + 1;
  s

let marker t event =
  Faros_obs.Sink.graph_segment t.w_sink ~run:t.w_run ~seq:(next_seq t) ~event
    ~nodes:t.w_seg_nodes ~edges:t.w_seg_edges

let writer ?(seg_rows = 2048) ~sink ~run () =
  let t =
    {
      w_sink = sink;
      w_run = run;
      w_seg_rows = max 1 seg_rows;
      w_seq = 0;
      w_rows_in_seg = 0;
      w_seg_nodes = 0;
      w_seg_edges = 0;
      w_segments = 1;
      w_nodes = Hashtbl.create 256;
      w_edges = Hashtbl.create 256;
      w_incident = Hashtbl.create 256;
      w_inc_cells = 0;
      w_spilled = Bits.create ();
      w_next_eord = 0;
      w_spilled_nodes = 0;
      w_spilled_edges = 0;
      w_patch_rows = 0;
      w_peak_nodes = 0;
      w_peak_edges = 0;
      w_closed = false;
    }
  in
  marker t "begin";
  t

let stats t =
  {
    st_spilled_nodes = t.w_spilled_nodes;
    st_spilled_edges = t.w_spilled_edges;
    st_patch_rows = t.w_patch_rows;
    st_peak_live_nodes = t.w_peak_nodes;
    st_peak_live_edges = t.w_peak_edges;
    st_rows = t.w_seq;
    st_segments = t.w_segments;
  }

(* Segment rotation: close the open segment once it holds [seg_rows]
   rows, so a consumer can checkpoint at marker boundaries. *)
let row_written t =
  t.w_rows_in_seg <- t.w_rows_in_seg + 1;
  if t.w_rows_in_seg >= t.w_seg_rows then begin
    marker t "end";
    t.w_rows_in_seg <- 0;
    t.w_seg_nodes <- 0;
    t.w_seg_edges <- 0;
    t.w_segments <- t.w_segments + 1
  end

(* -- row rendering -------------------------------------------------------- *)

module Json = Faros_obs.Json

let node_fields ln : (string * Json.t) list =
  match ln.ln_seed with
  | Faros_graph.Delta.S_flow f ->
    [ ("src", Str (Faros_os.Types.Ip.to_string f.src_ip)); ("sport", Int f.src_port);
      ("dst", Str (Faros_os.Types.Ip.to_string f.dst_ip)); ("dport", Int f.dst_port) ]
  | S_proc { pid; _ } ->
    (("pid", Json.Int pid) :: ("name", Str ln.ln_name)
    :: (match ln.ln_exit with Some c -> [ ("exit", Json.Int c) ] | None -> []))
    @ [ ("tainted", Int ln.ln_tainted); ("netflow", Int ln.ln_netflow) ]
  | S_file { name; _ } ->
    [ ("name", Str name); ("vlo", Int ln.ln_vlo); ("vhi", Int ln.ln_vhi) ]
  | S_module { pid; image; base } ->
    [ ("pid", Int pid); ("image", Str image); ("base", Int base) ]
  | S_region { pid; process; vaddr; len; types } ->
    [ ("pid", Int pid); ("process", Str process); ("vaddr", Int vaddr); ("len", Int len);
      ("types", List (List.map (fun ty -> Json.Str ty) types)) ]
  | S_flag { process; pc; tick } ->
    [ ("process", Str process); ("pc", Int pc); ("tick", Int tick) ]

let flush_node t ln =
  Faros_obs.Sink.graph_node t.w_sink ~run:t.w_run ~seq:(next_seq t)
    ~ord:ln.ln_ord ~ident:ln.ln_ident
    ~kind:(Faros_graph.Delta.seed_kind ln.ln_seed)
    ~fields:(node_fields ln) ();
  Hashtbl.remove t.w_nodes ln.ln_ord;
  Bits.add t.w_spilled ln.ln_ord;
  t.w_spilled_nodes <- t.w_spilled_nodes + 1;
  t.w_seg_nodes <- t.w_seg_nodes + 1;
  row_written t

let patch t ~ord fields =
  Faros_obs.Sink.graph_node t.w_sink ~run:t.w_run ~seq:(next_seq t) ~ord ~fields
    ();
  t.w_patch_rows <- t.w_patch_rows + 1;
  t.w_seg_nodes <- t.w_seg_nodes + 1;
  row_written t

let flush_edge t key =
  match Hashtbl.find_opt t.w_edges key with
  | None -> ()
  | Some le ->
    Faros_obs.Sink.graph_edge t.w_sink ~run:t.w_run ~seq:(next_seq t)
      ~eord:le.le_eord ~src:le.le_src ~dst:le.le_dst
      ~kind:(Faros_graph.Graph.edge_kind_name le.le_kind)
      ~tick:le.le_tick ~last_tick:le.le_last ~count:le.le_count
      ~bytes:le.le_bytes;
    Hashtbl.remove t.w_edges key;
    t.w_spilled_edges <- t.w_spilled_edges + 1;
    t.w_seg_edges <- t.w_seg_edges + 1;
    row_written t

let add_incident t ord key =
  let l =
    match Hashtbl.find_opt t.w_incident ord with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace t.w_incident ord l;
      l
  in
  l := key :: !l;
  t.w_inc_cells <- t.w_inc_cells + 1

(* A node that never retires (the listener, the init process) accretes
   incident cells for edges long since flushed from the other endpoint.
   When dead cells dominate, rebuild every list from the live edge set —
   O(live) work, amortized constant per edge, and order-preserving: the
   rebuilt lists are in ascending creation order ([eord]), exactly what
   insertion built, so retirement flush order is unchanged. *)
let prune_incident t =
  if t.w_inc_cells > (4 * Hashtbl.length t.w_edges) + 64 then begin
    Hashtbl.reset t.w_incident;
    t.w_inc_cells <- 0;
    Hashtbl.fold (fun key le acc -> (le.le_eord, key) :: acc) t.w_edges []
    |> List.sort compare
    |> List.iter (fun (_, ((src, dst, _) as key)) ->
           add_incident t src key;
           add_incident t dst key)
  end

(* -- the consumer --------------------------------------------------------- *)

let consume t (delta : Faros_graph.Delta.t) =
  match delta with
  | D_node { ord; ident; seed } ->
    let name = match seed with Faros_graph.Delta.S_proc { name; _ } -> name | _ -> "" in
    let vlo, vhi =
      match seed with Faros_graph.Delta.S_file { version; _ } -> (version, version) | _ -> (0, 0)
    in
    Hashtbl.replace t.w_nodes ord
      {
        ln_ord = ord;
        ln_ident = ident;
        ln_seed = seed;
        ln_name = name;
        ln_exit = None;
        ln_tainted = 0;
        ln_netflow = 0;
        ln_vlo = vlo;
        ln_vhi = vhi;
      };
    t.w_peak_nodes <- max t.w_peak_nodes (Hashtbl.length t.w_nodes)
  | D_name { ord; name } -> (
    match Hashtbl.find_opt t.w_nodes ord with
    | Some ln -> ln.ln_name <- name
    | None ->
      if Bits.mem t.w_spilled ord then
        patch t ~ord [ ("name", Str name) ])
  | D_version { ord; version } -> (
    match Hashtbl.find_opt t.w_nodes ord with
    | Some ln ->
      if version < ln.ln_vlo then ln.ln_vlo <- version;
      if version > ln.ln_vhi then ln.ln_vhi <- version
    | None ->
      if Bits.mem t.w_spilled ord then
        patch t ~ord [ ("vlo", Int version); ("vhi", Int version) ])
  | D_exit { ord; code } -> (
    match Hashtbl.find_opt t.w_nodes ord with
    | Some ln -> ln.ln_exit <- Some code
    | None ->
      if Bits.mem t.w_spilled ord then
        patch t ~ord [ ("exit", Int code) ])
  | D_taint { ord; tainted; netflow } -> (
    match Hashtbl.find_opt t.w_nodes ord with
    | Some ln ->
      ln.ln_tainted <- tainted;
      ln.ln_netflow <- netflow
    | None ->
      if Bits.mem t.w_spilled ord then
        patch t ~ord [ ("tainted", Int tainted); ("netflow", Int netflow) ])
  | D_edge { src; dst; kind; tick; last_tick; count; bytes } -> (
    let key = (src, dst, kind) in
    match Hashtbl.find_opt t.w_edges key with
    | Some le ->
      if last_tick > le.le_last then le.le_last <- last_tick;
      le.le_count <- le.le_count + count;
      le.le_bytes <- le.le_bytes + bytes
    | None ->
      let eord = t.w_next_eord in
      t.w_next_eord <- eord + 1;
      Hashtbl.replace t.w_edges key
        {
          le_eord = eord;
          le_src = src;
          le_dst = dst;
          le_kind = kind;
          le_tick = tick;
          le_last = last_tick;
          le_count = count;
          le_bytes = bytes;
        };
      add_incident t src key;
      add_incident t dst key;
      t.w_peak_edges <- max t.w_peak_edges (Hashtbl.length t.w_edges))
  | D_retire { ord } ->
    (* spill the node and every live edge touching it; the incident list
       may hold keys already flushed from the other endpoint — flush_edge
       checks liveness *)
    (match Hashtbl.find_opt t.w_incident ord with
    | Some keys ->
      List.iter (fun key -> flush_edge t key) (List.rev !keys);
      Hashtbl.remove t.w_incident ord
    | None -> ());
    (match Hashtbl.find_opt t.w_nodes ord with
    | Some ln -> flush_node t ln
    | None -> ());
    prune_incident t

(* Drain: everything still live spills in deterministic order (nodes by
   ordinal, edges by creation ordinal), then the final marker closes the
   run.  Identical graphs therefore serialize identically regardless of
   how much retirement happened along the way. *)
let close t =
  if not t.w_closed then begin
    t.w_closed <- true;
    let edges =
      Hashtbl.fold (fun key le acc -> (le.le_eord, key) :: acc) t.w_edges []
      |> List.sort compare
    in
    List.iter (fun (_, key) -> flush_edge t key) edges;
    let nodes =
      Hashtbl.fold (fun ord _ acc -> ord :: acc) t.w_nodes []
      |> List.sort compare
    in
    List.iter
      (fun ord ->
        match Hashtbl.find_opt t.w_nodes ord with
        | Some ln -> flush_node t ln
        | None -> ())
      nodes;
    Hashtbl.reset t.w_incident;
    marker t "final"
  end

(* -- reading rows back: the inverse of [node_fields] ----------------------- *)

(* Commutative per-field merge of the rows one ordinal accumulates: taint
   totals and the version ceiling take the maximum, names prefer the
   resolved ("?"-free) value, everything else — the version floor, the
   exit code, and the fields constant per ordinal — the minimum. *)
let merge_field name a b =
  match name with
  | "tainted" | "netflow" | "vhi" -> if compare b a > 0 then b else a
  | "name" -> (
    match (a, b) with
    | Json.Str "?", _ -> b
    | _, Json.Str "?" -> a
    | _ -> if compare b a < 0 then b else a)
  | _ -> if compare b a < 0 then b else a

let merge_row fields kvs =
  List.iter
    (fun (k, v) ->
      match k with
      | "run" | "seq" -> ()
      | _ -> (
        match Hashtbl.find_opt fields k with
        | None -> Hashtbl.replace fields k v
        | Some old -> Hashtbl.replace fields k (merge_field k old v)))
    kvs

let ( let* ) = Result.bind

let decode_node fields =
  let open Faros_graph.Delta in
  let opt conv k = Option.bind (Hashtbl.find_opt fields k) conv in
  let get conv k =
    match opt conv k with
    | Some v -> Ok v
    | None -> Error ("node row missing " ^ k)
  in
  let int = get Json.to_int and str = get Json.to_str in
  let total k = Option.value ~default:0 (opt Json.to_int k) in
  let none _ = [] in
  let* kind = str "kind" in
  match kind with
  | "flow" ->
    let ip k =
      let* s = str k in
      match Faros_os.Types.Ip.of_string s with
      | ip -> Ok ip
      | exception (Invalid_argument _ | Failure _) ->
        Error (Printf.sprintf "node row has a malformed %s %S" k s)
    in
    let* src_ip = ip "src" in
    let* src_port = int "sport" in
    let* dst_ip = ip "dst" in
    let* dst_port = int "dport" in
    Ok (S_flow { src_ip; src_port; dst_ip; dst_port }, none)
  | "process" ->
    let* pid = int "pid" in
    let* name = str "name" in
    let attrs ord =
      D_taint { ord; tainted = total "tainted"; netflow = total "netflow" }
      :: List.map
           (fun code -> D_exit { ord; code })
           (Option.to_list (opt Json.to_int "exit"))
    in
    Ok (S_proc { pid; name }, attrs)
  | "file" ->
    let* name = str "name" in
    let* vlo = int "vlo" in
    let* vhi = int "vhi" in
    Ok (S_file { name; version = vlo }, fun ord -> [ D_version { ord; version = vhi } ])
  | "module" ->
    let* pid = int "pid" in
    let* image = str "image" in
    let* base = int "base" in
    Ok (S_module { pid; image; base }, none)
  | "region" ->
    let* pid = int "pid" in
    let* process = str "process" in
    let* vaddr = int "vaddr" in
    let* len = int "len" in
    let types = Option.value ~default:[] (opt Json.to_strings "types") in
    Ok (S_region { pid; process; vaddr; len; types }, none)
  | "flag" ->
    let* process = str "process" in
    let* pc = int "pc" in
    let* tick = int "tick" in
    Ok (S_flag { process; pc; tick }, none)
  | k -> Error (Printf.sprintf "unknown node kind %S" k)

(* Whodunit slicing: from a flagged load back to the input that caused it.

   A slice answers Fig. 4's question — "show me the chain from the wire
   to the injected code" — as the minimal subgraph connecting the input
   origins to one flag site.  Construction is two temporal sweeps:

   1. Backward: walk edges in reverse from the flag site, carrying a tick
      bound; an edge is admissible only if it happened no later than the
      bound at its destination (an interaction after the flag cannot have
      caused it).  This collects everything that could have influenced
      the flag.
   2. Origin selection + forward: inside that backward cone, the origins
      are the network flows — preferring the flows the flag's own taint
      provenance names (a server under load has hundreds of flows in the
      cone through accept/spawn lineage; only the guilty one tainted the
      flag) — or, for file-borne payloads like process hollowing where no
      flow exists, the source files (files nobody in the cone wrote: they
      carried their payload in from outside).  A
      forward reachability sweep from the origins intersects the cone, so
      nodes that influenced the flag but are not on an origin path (e.g.
      the victim's own image mapping) drop out.

   The rendered chain per origin is the shortest event path origin ->
   flag, preferring concrete interactions (received, injected-into) over
   the tainted-by provenance shortcuts, which reproduces Table II's
   NetFlow -> inject_client.exe -> notepad.exe chains as graph paths. *)

type t = {
  sl_flag : Graph.node;
  sl_nodes : int list;  (* ascending node ids *)
  sl_edges : Graph.edge list;  (* induced subgraph, insertion order *)
  sl_origins : Graph.node list;  (* id order *)
  sl_chains : Graph.node list list;  (* one per origin: origin .. flag *)
}

let is_flow (n : Graph.node) =
  match n.n_kind with Graph.Flow _ -> true | _ -> false

let is_file (n : Graph.node) =
  match n.n_kind with Graph.File _ -> true | _ -> false

(* Shortest path src -> dst over the given adjacency, neighbors in edge
   order (deterministic).  Returns the node-id path, or None. *)
let bfs_path ~outs ~admit ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parent = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace parent src (-1);
    Queue.add src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun (e : Graph.edge) ->
          if admit e && not (Hashtbl.mem parent e.e_dst) then begin
            Hashtbl.replace parent e.e_dst v;
            if e.e_dst = dst then found := true else Queue.add e.e_dst q
          end)
        outs.(v)
    done;
    if not !found then None
    else begin
      let rec walk v acc =
        if v = src then v :: acc else walk (Hashtbl.find parent v) (v :: acc)
      in
      Some (walk dst [])
    end
  end

let whodunit g (flag : Graph.node) =
  let flag_tick =
    match flag.n_kind with
    | Graph.Flag_site fl -> fl.fl_tick
    | _ -> invalid_arg "Slice.whodunit: not a flag-site node"
  in
  let n = Graph.node_count g in
  let ins = Graph.in_edges g and outs = Graph.out_edges g in
  (* 1. backward temporal cone *)
  let bound = Array.make (max 1 n) min_int in
  bound.(flag.n_id) <- flag_tick;
  let q = Queue.create () in
  Queue.add flag.n_id q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let b = bound.(v) in
    List.iter
      (fun (e : Graph.edge) ->
        if e.e_tick <= b then begin
          (* cross at the latest occurrence that is still admissible *)
          let cand = if e.e_last_tick <= b then e.e_last_tick else e.e_tick in
          if cand > bound.(e.e_src) then begin
            bound.(e.e_src) <- cand;
            Queue.add e.e_src q
          end
        end)
      ins.(v)
  done;
  let in_cone id = bound.(id) > min_int in
  (* 2. origins: flows, else source files *)
  let cone_nodes = List.filter (fun (nd : Graph.node) -> in_cone nd.n_id) (Graph.nodes g) in
  let flows = List.filter is_flow cone_nodes in
  (* Data-grounded refinement: when the detector recorded taint provenance
     for this flag, the flows that actually tainted it are the origins.
     Flows reaching the flag only through process lineage — a server that
     accepted hundreds of connections and then spawned the flagging
     worker — drop out; without provenance the structural cone stands. *)
  let tainting =
    List.filter
      (fun (nd : Graph.node) ->
        List.exists
          (fun (e : Graph.edge) ->
            e.e_kind = Graph.Tainted_by && e.e_src = nd.n_id)
          ins.(flag.n_id))
      flows
  in
  let flows = if tainting <> [] then tainting else flows in
  let origins =
    if flows <> [] then flows
    else
      List.filter
        (fun (nd : Graph.node) ->
          is_file nd
          && not
               (List.exists
                  (fun (e : Graph.edge) ->
                    e.e_kind = Graph.Wrote && in_cone e.e_src)
                  ins.(nd.n_id)))
        cone_nodes
  in
  (* 3. forward sweep from the origins, inside the cone *)
  let in_slice = Array.make (max 1 n) false in
  in_slice.(flag.n_id) <- true;
  let q = Queue.create () in
  List.iter
    (fun (o : Graph.node) ->
      if not in_slice.(o.n_id) then begin
        in_slice.(o.n_id) <- true;
        Queue.add o.n_id q
      end)
    origins;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Graph.edge) ->
        if in_cone e.e_dst && e.e_tick <= flag_tick && not in_slice.(e.e_dst)
        then begin
          in_slice.(e.e_dst) <- true;
          Queue.add e.e_dst q
        end)
      outs.(v)
  done;
  let sl_nodes =
    List.filter_map
      (fun (nd : Graph.node) -> if in_slice.(nd.n_id) then Some nd.n_id else None)
      (Graph.nodes g)
  in
  let sl_edges =
    List.filter
      (fun (e : Graph.edge) ->
        in_slice.(e.e_src) && in_slice.(e.e_dst) && e.e_tick <= flag_tick)
      (Graph.edges g)
  in
  (* 4. one rendered chain per origin: prefer event edges, fall back to
     the tainted-by shortcuts if the event path is incomplete *)
  let by_id = Array.of_list (Graph.nodes g) in
  let admit_slice (e : Graph.edge) =
    in_slice.(e.e_src) && in_slice.(e.e_dst) && e.e_tick <= flag_tick
  in
  let chains =
    List.filter_map
      (fun (o : Graph.node) ->
        let path =
          match
            bfs_path ~outs
              ~admit:(fun e -> admit_slice e && e.e_kind <> Graph.Tainted_by)
              ~src:o.n_id ~dst:flag.n_id
          with
          | Some p -> Some p
          | None -> bfs_path ~outs ~admit:admit_slice ~src:o.n_id ~dst:flag.n_id
        in
        Option.map (List.map (fun id -> by_id.(id))) path)
      origins
  in
  { sl_flag = flag; sl_nodes; sl_edges; sl_origins = origins; sl_chains = chains }

let slices g = List.map (whodunit g) (Graph.flag_nodes g)

let has_netflow_origin t = List.exists is_flow t.sl_origins

let forward g (start : Graph.node) =
  let outs = Graph.out_edges g in
  let seen = Array.make (max 1 (Graph.node_count g)) false in
  seen.(start.n_id) <- true;
  let q = Queue.create () in
  Queue.add start.n_id q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (e : Graph.edge) ->
        if not seen.(e.e_dst) then begin
          seen.(e.e_dst) <- true;
          Queue.add e.e_dst q
        end)
      outs.(v)
  done;
  List.filter (fun (nd : Graph.node) -> seen.(nd.n_id)) (Graph.nodes g)

let render_chain chain =
  String.concat " -> " (List.map Graph.node_label chain)

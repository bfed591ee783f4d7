(* The streaming forensic store: graph segment rows in, cross-campaign
   queries out.

   Ingestion is row-by-row and order-insensitive.  Every row carries its
   producing run id and a per-run sequence number; a (run, seq) pair
   already seen is skipped, which makes re-ingesting a segment file (or
   a prefix of one) idempotent.  Rows merge under commutative,
   associative operators —

     node attributes   ident/kind and constants merge by minimum (they
                       are equal in practice), names prefer the resolved
                       ("?"-free) value, version ranges widen
                       (min lo / max hi), taint totals take the maximum,
                       exit codes the minimum ({!Segment.merge_row});
     edges             keyed by (src, dst, kind): creation ordinal and
                       first tick take the minimum, last tick the
                       maximum, counts and bytes add

   — so any shuffle of segment files, or of lines within them, produces
   the same store and byte-identical query output.

   Reconstruction has no graph constructors of its own: merged rows
   decode back into the delta stream ({!Segment.decode_node}) and are
   applied through the builder's resident consumer ({!Faros_graph.Delta.apply}).
   Ordinals are dense first-encounter ids, so applying node rows in
   ordinal order reproduces the ids, and edge rows in creation-ordinal
   order reproduce the insertion order: whodunit slices over the
   reconstruction are byte-identical to slices over the live graph.

   Cross-run queries join on the stable identity strings: --origins
   ranks slice origins by how many runs they reached; the merged export
   unions all runs' nodes by identity (process display pids come from
   the lexicographically first run carrying the identity). *)

module Json = Faros_obs.Json

type erow = {
  mutable er_eord : int;
  er_src : int;
  er_dst : int;
  er_kind : string;
  mutable er_tick : int;
  mutable er_last : int;
  mutable er_count : int;
  mutable er_bytes : int;
}

type run = {
  run_id : string;
  r_seen : (int, unit) Hashtbl.t;  (* sequence numbers ingested *)
  r_nodes : (int, (string, Json.t) Hashtbl.t) Hashtbl.t;  (* by ordinal *)
  r_edges : (int * int * string, erow) Hashtbl.t;
  mutable r_rows : int;
  mutable r_dups : int;
  mutable r_final : bool;  (* saw the "final" marker *)
  mutable r_cache : Faros_graph.Graph.t option;
}

type t = { runs : (string, run) Hashtbl.t }

let create () = { runs = Hashtbl.create 16 }

let get_run t id =
  match Hashtbl.find_opt t.runs id with
  | Some r -> r
  | None ->
    let r =
      {
        run_id = id;
        r_seen = Hashtbl.create 256;
        r_nodes = Hashtbl.create 256;
        r_edges = Hashtbl.create 256;
        r_rows = 0;
        r_dups = 0;
        r_final = false;
        r_cache = None;
      }
    in
    Hashtbl.replace t.runs id r;
    r

(* -- ingestion ------------------------------------------------------------ *)

let ingest_row t v =
  match (Json.str_mem v "type", Json.str_mem v "run", Json.int_mem v "seq") with
  | Some typ, Some run_id, Some seq
    when typ = "graph_node" || typ = "graph_edge" || typ = "graph_segment" ->
    let r = get_run t run_id in
    if Hashtbl.mem r.r_seen seq then begin
      r.r_dups <- r.r_dups + 1;
      Ok 0
    end
    else begin
      Hashtbl.replace r.r_seen seq ();
      r.r_rows <- r.r_rows + 1;
      r.r_cache <- None;
      (match typ with
      | "graph_node" -> (
        match (Json.int_mem v "ord", v) with
        | Some ord, Json.Obj kvs ->
          let fields =
            match Hashtbl.find_opt r.r_nodes ord with
            | Some f -> f
            | None ->
              let f = Hashtbl.create 8 in
              Hashtbl.replace r.r_nodes ord f;
              f
          in
          Segment.merge_row fields kvs
        | _ -> ())
      | "graph_edge" -> (
        match
          ( Json.int_mem v "eord",
            Json.int_mem v "src",
            Json.int_mem v "dst",
            Json.str_mem v "kind" )
        with
        | Some eord, Some src, Some dst, Some kind ->
          let tick = Option.value ~default:0 (Json.int_mem v "tick") in
          let last = Option.value ~default:tick (Json.int_mem v "last_tick") in
          let count = Option.value ~default:1 (Json.int_mem v "count") in
          let bytes = Option.value ~default:0 (Json.int_mem v "bytes") in
          let key = (src, dst, kind) in
          (match Hashtbl.find_opt r.r_edges key with
          | Some e ->
            if eord < e.er_eord then e.er_eord <- eord;
            if tick < e.er_tick then e.er_tick <- tick;
            if last > e.er_last then e.er_last <- last;
            e.er_count <- e.er_count + count;
            e.er_bytes <- e.er_bytes + bytes
          | None ->
            Hashtbl.replace r.r_edges key
              {
                er_eord = eord;
                er_src = src;
                er_dst = dst;
                er_kind = kind;
                er_tick = tick;
                er_last = last;
                er_count = count;
                er_bytes = bytes;
              })
        | _ -> ())
      | _ ->
        (* graph_segment marker *)
        if Json.str_mem v "event" = Some "final" then r.r_final <- true);
      Ok 1
    end
  | _ -> Ok 0 (* foreign row types (mixed telemetry streams) are fine *)

let ingest_lines t lines =
  let rec loop i added = function
    | [] -> Ok added
    | line :: rest ->
      if String.trim line = "" then loop (i + 1) added rest
      else begin
        match Json.parse line with
        | Error msg -> Error (Printf.sprintf "line %d: %s" i msg)
        | Ok v -> (
          match ingest_row t v with
          | Ok k -> loop (i + 1) (added + k) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" i e))
      end
  in
  loop 1 0 lines

let ingest_file t path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        read [])
  with
  | exception Sys_error msg -> Error msg
  | lines -> (
    match ingest_lines t lines with
    | Ok n -> Ok n
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let load ~dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let t = create () in
    let files =
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort compare
    in
    if files = [] then Error (Printf.sprintf "%s: no .jsonl segment files" dir)
    else
      let rec go = function
        | [] -> Ok t
        | f :: rest -> (
          match ingest_file t (Filename.concat dir f) with
          | Ok _ -> go rest
          | Error e -> Error e)
      in
      go files

(* -- reconstruction ------------------------------------------------------- *)

let ( let* ) r f = Result.bind r f

let field_str fields k =
  match Hashtbl.find_opt fields k with Some v -> Json.to_str v | None -> None

let sorted_ords r =
  Hashtbl.fold (fun ord _ acc -> ord :: acc) r.r_nodes [] |> List.sort compare

let sorted_erows r =
  Hashtbl.fold (fun _ e acc -> e :: acc) r.r_edges []
  |> List.sort (fun a b -> compare a.er_eord b.er_eord)

(* A run's merged rows in replay order: its node rows by ordinal as
   [(ident, fields)], then its edges in creation order as deltas.  Whatever
   would trip the replay is an [Error] naming the run: ordinals not dense
   from 0, a node row without an identity, an unknown edge kind, an edge
   naming an ordinal with no node row. *)
let run_rows r =
  let err fmt =
    Printf.ksprintf (fun s -> Error (Printf.sprintf "run %s: %s" r.run_id s)) fmt
  in
  let rec nodes expect acc = function
    | [] -> Ok (List.rev acc)
    | ord :: rest -> (
      if ord <> expect then err "node ordinals not dense (missing %d)" expect
      else
        let fields = Hashtbl.find r.r_nodes ord in
        match field_str fields "ident" with
        | None -> err "ord %d: node row missing ident" ord
        | Some ident -> nodes (expect + 1) ((ident, fields) :: acc) rest)
  in
  let* nodes = nodes 0 [] (sorted_ords r) in
  let n = List.length nodes in
  let rec edges acc = function
    | [] -> Ok (nodes, List.rev acc)
    | e :: rest -> (
      match
        ( Faros_graph.Graph.edge_kind_of_name e.er_kind,
          List.find_opt (fun o -> o < 0 || o >= n) [ e.er_src; e.er_dst ] )
      with
      | None, _ -> err "unknown edge kind %S" e.er_kind
      | _, Some o -> err "edge row names ordinal %d, which has no node row" o
      | Some kind, None ->
        edges
          (Faros_graph.Delta.D_edge
             {
               src = e.er_src;
               dst = e.er_dst;
               kind;
               tick = e.er_tick;
               last_tick = e.er_last;
               count = e.er_count;
               bytes = e.er_bytes;
             }
          :: acc)
          rest)
  in
  edges [] (sorted_erows r)

(* Decode run [r]'s node row [row] back to deltas and apply them under
   ordinal [ord], passing the seed through [remap] first. *)
let apply_node apply ?(remap = Fun.id) r ~row ~ord (ident, fields) =
  match Segment.decode_node fields with
  | Error e -> Error (Printf.sprintf "run %s: ord %d: %s" r.run_id row e)
  | Ok (seed, attrs) ->
    apply (Faros_graph.Delta.D_node { ord; ident; seed = remap seed });
    List.iter apply (attrs ord);
    Ok ()

let reconstruct r =
  let* nodes, edges = run_rows r in
  let g = Faros_graph.Graph.create ~sample:r.run_id () in
  let apply = Faros_graph.Delta.apply (Faros_graph.Delta.resident g) in
  let rec replay ord = function
    | [] ->
      List.iter apply edges;
      Ok g
    | node :: rest ->
      let* () = apply_node apply r ~row:ord ~ord node in
      (* each ordinal interns a fresh node, unless its key clashed *)
      if Faros_graph.Graph.node_count g <> ord + 1 then
        Error
          (Printf.sprintf "run %s: ordinal %d clashes with an earlier node's key"
             r.run_id ord)
      else replay (ord + 1) rest
  in
  replay 0 nodes

let runs t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.runs [] |> List.sort compare

let find_run t id =
  match Hashtbl.find_opt t.runs id with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "no such run %S in store" id)

let run_graph t id =
  let* r = find_run t id in
  match r.r_cache with
  | Some g -> Ok g
  | None ->
    let* g = reconstruct r in
    r.r_cache <- Some g;
    Ok g

let ident t ~run ~ord =
  match Hashtbl.find_opt t.runs run with
  | None -> None
  | Some r -> (
    match Hashtbl.find_opt r.r_nodes ord with
    | None -> None
    | Some fields -> field_str fields "ident")

(* -- store-level stats ---------------------------------------------------- *)

type totals = {
  t_runs : int;
  t_complete : int;  (** runs whose "final" marker arrived *)
  t_rows : int;
  t_dups : int;
  t_nodes : int;
  t_edges : int;
  t_flag_runs : int;
}

let totals t =
  Hashtbl.fold
    (fun _ r acc ->
      let flagged =
        Hashtbl.fold
          (fun _ fields acc ->
            acc || field_str fields "kind" = Some "flag")
          r.r_nodes false
      in
      {
        t_runs = acc.t_runs + 1;
        t_complete = (acc.t_complete + if r.r_final then 1 else 0);
        t_rows = acc.t_rows + r.r_rows;
        t_dups = acc.t_dups + r.r_dups;
        t_nodes = acc.t_nodes + Hashtbl.length r.r_nodes;
        t_edges = acc.t_edges + Hashtbl.length r.r_edges;
        t_flag_runs = (acc.t_flag_runs + if flagged then 1 else 0);
      })
    t.runs
    {
      t_runs = 0;
      t_complete = 0;
      t_rows = 0;
      t_dups = 0;
      t_nodes = 0;
      t_edges = 0;
      t_flag_runs = 0;
    }

(* -- cross-run queries ---------------------------------------------------- *)

type origin = {
  o_ident : string;
  o_label : string;
  o_runs : string list;  (** sorted run ids whose slices reached it *)
}

let origins t =
  let by_ident : (string, string * string list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let rec walk = function
    | [] -> Ok ()
    | run_id :: rest ->
      let* g = run_graph t run_id in
      List.iter
        (fun (sl : Faros_graph.Slice.t) ->
          List.iter
            (fun (n : Faros_graph.Graph.node) ->
              let id =
                Option.value
                  ~default:(Faros_graph.Graph.node_label n)
                  (ident t ~run:run_id ~ord:n.n_id)
              in
              match Hashtbl.find_opt by_ident id with
              | Some (_, runs) ->
                if not (List.mem run_id !runs) then runs := run_id :: !runs
              | None ->
                Hashtbl.replace by_ident id
                  (Faros_graph.Graph.node_label n, ref [ run_id ]))
            sl.sl_origins)
        (Faros_graph.Slice.slices g);
      walk rest
  in
  let* () = walk (runs t) in
  Ok
    (Hashtbl.fold
       (fun id (label, rs) acc ->
         { o_ident = id; o_label = label; o_runs = List.sort compare !rs } :: acc)
       by_ident []
    |> List.sort (fun a b ->
           match compare (List.length b.o_runs) (List.length a.o_runs) with
           | 0 -> compare a.o_ident b.o_ident
           | c -> c))

type flow_hit = {
  fh_run : string;
  fh_ident : string;
  fh_label : string;
  fh_delivered : int;  (** bytes the flow delivered into processes *)
  fh_sent : int;  (** bytes processes sent back out *)
}

(* Substring match against the identity ("SRC:sport->DST:dport"); a bare
   port or host fragment works too. *)
let flows t ~spec =
  let rec walk acc = function
    | [] -> Ok (List.rev acc)
    | run_id :: rest ->
      let* g = run_graph t run_id in
      let out = Faros_graph.Graph.out_edges g in
      let in_ = Faros_graph.Graph.in_edges g in
      let hits =
        List.filter_map
          (fun (n : Faros_graph.Graph.node) ->
            match n.n_kind with
            | Faros_graph.Graph.Flow _ ->
              let id =
                Option.value
                  ~default:(Faros_graph.Graph.node_label n)
                  (ident t ~run:run_id ~ord:n.n_id)
              in
              let matches hay =
                let nh = String.length hay and ns = String.length spec in
                let rec at i =
                  i + ns <= nh && (String.sub hay i ns = spec || at (i + 1))
                in
                ns = 0 || at 0
              in
              if matches id then
                let sum =
                  List.fold_left (fun a (e : Faros_graph.Graph.edge) -> a + e.e_bytes) 0
                in
                Some
                  {
                    fh_run = run_id;
                    fh_ident = id;
                    fh_label = Faros_graph.Graph.node_label n;
                    fh_delivered = sum out.(n.n_id);
                    fh_sent = sum in_.(n.n_id);
                  }
              else None
            | _ -> None)
          (Faros_graph.Graph.nodes g)
      in
      walk (List.rev_append hits acc) rest
  in
  walk [] (runs t)

(* -- the merged view ------------------------------------------------------ *)

(* Union of every run's nodes keyed by stable identity, realized as a
   plain {!Faros_graph.Graph.t} so the DOT/JSON exporters apply as-is.
   Each run's decoded stream is renumbered onto merged ordinals (one per
   identity) and applied through the resident consumer in (run, ordinal)
   order over sorted run ids — fully determined by the ingested row set,
   so ingest order cannot show through.  Graph keys are narrower than
   identities (a pid can recur across runs naming different processes),
   so a seed whose key clashes has its display pid remapped (resp. its
   flow tuple perturbed) deterministically before it is applied; the
   identity, which is what queries join on, is untouched. *)
let merged_graph t =
  let open Faros_graph in
  let g = Graph.create ~sample:"store" () in
  let apply = Delta.apply (Delta.resident g) in
  let by_ident : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let pid_map : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_pid = ref 900_000 in
  let fresh_pid () =
    while Graph.find g (Graph.K_proc !next_pid) <> None do incr next_pid done;
    !next_pid
  in
  (* modules and regions follow their process's remapped pid *)
  let remap run_id : Delta.seed -> Delta.seed =
    let owner pid =
      Option.value ~default:pid (Hashtbl.find_opt pid_map (run_id, pid))
    in
    function
    | S_proc p ->
      let pid =
        if Graph.find g (Graph.K_proc p.pid) = None then p.pid else fresh_pid ()
      in
      Hashtbl.replace pid_map (run_id, p.pid) pid;
      S_proc { p with pid }
    | S_flow f ->
      let rec place k =
        let f' = { f with src_port = f.src_port + (k * 100_000) } in
        if Graph.find g (Graph.K_flow f') = None then f' else place (k + 1)
      in
      S_flow (place 0)
    | S_module m -> S_module { m with pid = owner m.pid }
    | S_region rg -> S_region { rg with pid = owner rg.pid }
    | (S_file _ | S_flag _) as seed -> seed
  in
  let merge_run run_id =
    let* r = find_run t run_id in
    let* nodes, edges = run_rows r in
    let map = Array.make (List.length nodes) 0 in
    (* only an identity's first row is decoded and applied *)
    let rec place row = function
      | [] -> Ok ()
      | ((ident, _) as node) :: rest -> (
        match Hashtbl.find_opt by_ident ident with
        | Some ord ->
          map.(row) <- ord;
          place (row + 1) rest
        | None ->
          let ord = Hashtbl.length by_ident in
          Hashtbl.replace by_ident ident ord;
          map.(row) <- ord;
          let* () = apply_node apply ~remap:(remap run_id) r ~row ~ord node in
          place (row + 1) rest)
    in
    let* () = place 0 nodes in
    List.iter
      (function
        | Delta.D_edge e -> apply (D_edge { e with src = map.(e.src); dst = map.(e.dst) })
        | d -> apply d)
      edges;
    Ok ()
  in
  let* () =
    List.fold_left
      (fun acc run_id -> Result.bind acc (fun () -> merge_run run_id))
      (Ok ()) (runs t)
  in
  Ok g

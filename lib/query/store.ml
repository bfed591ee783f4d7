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
                       exit codes the minimum;
     edges             keyed by (src, dst, kind): creation ordinal and
                       first tick take the minimum, last tick the
                       maximum, counts and bytes add

   — so any shuffle of segment files, or of lines within them, produces
   the same store and byte-identical query output.

   Per-run reconstruction rebuilds the producing run's resident
   {!Faros_graph.Graph.t} exactly: ordinals are dense first-encounter
   ids, so interning node rows in ordinal order reproduces the ids, and
   replaying edge rows in creation-ordinal order through
   {!Faros_graph.Graph.record_edge} reproduces the insertion order.
   Whodunit slices over the reconstruction are therefore byte-identical
   to slices over the live graph.

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

(* -- commutative field merge ---------------------------------------------- *)

let merge_field name a b =
  match name with
  | "tainted" | "netflow" | "vhi" -> if compare b a > 0 then b else a
  | "vlo" | "exit" -> if compare b a < 0 then b else a
  | "name" -> (
    match (a, b) with
    | Json.Str "?", _ -> b
    | _, Json.Str "?" -> a
    | _ -> if compare b a < 0 then b else a)
  | _ -> if compare b a < 0 then b else a

let merge_node_row fields kvs =
  List.iter
    (fun (k, v) ->
      match k with
      | "run" | "seq" -> ()
      | _ -> (
        match Hashtbl.find_opt fields k with
        | None -> Hashtbl.replace fields k v
        | Some old -> Hashtbl.replace fields k (merge_field k old v)))
    kvs

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
          merge_node_row fields kvs
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

let edge_kind_of_name = function
  | "spawned" -> Some Faros_graph.Graph.Spawned
  | "suspended" -> Some Faros_graph.Graph.Suspended
  | "resumed" -> Some Faros_graph.Graph.Resumed
  | "connected" -> Some Faros_graph.Graph.Connected
  | "received" -> Some Faros_graph.Graph.Received
  | "sent" -> Some Faros_graph.Graph.Sent
  | "read" -> Some Faros_graph.Graph.Read
  | "wrote" -> Some Faros_graph.Graph.Wrote
  | "mapped" -> Some Faros_graph.Graph.Mapped
  | "injected-into" -> Some Faros_graph.Graph.Injected_into
  | "tainted-by" -> Some Faros_graph.Graph.Tainted_by
  | "flagged" -> Some Faros_graph.Graph.Flagged
  | _ -> None

let req what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "node row missing %s" what)

let ( let* ) r f = Result.bind r f

let field_int fields k =
  match Hashtbl.find_opt fields k with Some v -> Json.to_int v | None -> None

let field_str fields k =
  match Hashtbl.find_opt fields k with Some v -> Json.to_str v | None -> None

(* Intern one merged node row into [g]; with ordinal-dense rows applied
   in ordinal order the assigned id equals the ordinal. *)
let intern_node g fields =
  let open Faros_graph in
  let* kind = req "kind" (field_str fields "kind") in
  match kind with
  | "flow" ->
    let* src = req "src" (field_str fields "src") in
    let* sport = req "sport" (field_int fields "sport") in
    let* dst = req "dst" (field_str fields "dst") in
    let* dport = req "dport" (field_int fields "dport") in
    Ok
      (Graph.flow_node g
         {
           src_ip = Faros_os.Types.Ip.of_string src;
           src_port = sport;
           dst_ip = Faros_os.Types.Ip.of_string dst;
           dst_port = dport;
         })
  | "process" ->
    let* pid = req "pid" (field_int fields "pid") in
    let* name = req "name" (field_str fields "name") in
    let n = Graph.process_node g ~pid ~name in
    Option.iter (Graph.set_exit_code n) (field_int fields "exit");
    Graph.set_process_taint n
      ~tainted_bytes:(Option.value ~default:0 (field_int fields "tainted"))
      ~netflow_bytes:(Option.value ~default:0 (field_int fields "netflow"));
    Ok n
  | "file" ->
    let* name = req "name" (field_str fields "name") in
    let* vlo = req "vlo" (field_int fields "vlo") in
    let* vhi = req "vhi" (field_int fields "vhi") in
    let n = Graph.file_node g ~name ~version:vlo in
    ignore (Graph.file_node g ~name ~version:vhi);
    Ok n
  | "module" ->
    let* pid = req "pid" (field_int fields "pid") in
    let* image = req "image" (field_str fields "image") in
    let* base = req "base" (field_int fields "base") in
    Ok (Graph.module_node g ~pid ~image ~base)
  | "region" ->
    let* pid = req "pid" (field_int fields "pid") in
    let* process = req "process" (field_str fields "process") in
    let* vaddr = req "vaddr" (field_int fields "vaddr") in
    let* len = req "len" (field_int fields "len") in
    let types =
      match Hashtbl.find_opt fields "types" with
      | Some v -> Option.value ~default:[] (Json.to_strings v)
      | None -> []
    in
    Ok (Graph.region_node g ~pid ~process ~vaddr ~len ~types)
  | "flag" ->
    let* process = req "process" (field_str fields "process") in
    let* pc = req "pc" (field_int fields "pc") in
    let* tick = req "tick" (field_int fields "tick") in
    Ok (Graph.flag_site_node g ~process ~pc ~tick)
  | k -> Error (Printf.sprintf "unknown node kind %S" k)

let sorted_ords r =
  Hashtbl.fold (fun ord _ acc -> ord :: acc) r.r_nodes [] |> List.sort compare

let sorted_erows r =
  Hashtbl.fold (fun _ e acc -> e :: acc) r.r_edges []
  |> List.sort (fun a b -> compare a.er_eord b.er_eord)

let reconstruct r =
  let g = Faros_graph.Graph.create ~sample:r.run_id () in
  let ords = sorted_ords r in
  let rec nodes expect = function
    | [] -> Ok ()
    | ord :: rest ->
      if ord <> expect then
        Error
          (Printf.sprintf "run %s: node ordinals not dense (missing %d)"
             r.run_id expect)
      else
        let fields = Hashtbl.find r.r_nodes ord in
        let* node = Result.map_error (Printf.sprintf "run %s ord %d: %s" r.run_id ord) (intern_node g fields) in
        if node.Faros_graph.Graph.n_id <> ord then
          Error
            (Printf.sprintf "run %s: ordinal %d interned as id %d (key clash)"
               r.run_id ord node.Faros_graph.Graph.n_id)
        else nodes (expect + 1) rest
  in
  let* () = nodes 0 ords in
  let rec edges = function
    | [] -> Ok ()
    | e :: rest -> (
      match edge_kind_of_name e.er_kind with
      | None -> Error (Printf.sprintf "run %s: unknown edge kind %S" r.run_id e.er_kind)
      | Some kind ->
        Faros_graph.Graph.record_edge g ~src:e.er_src ~dst:e.er_dst ~kind
          ~tick:e.er_tick ~last_tick:e.er_last ~count:e.er_count
          ~bytes:e.er_bytes;
        edges rest)
  in
  let* () = edges (sorted_erows r) in
  Ok g

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
   Nodes intern in (run, ordinal) order over sorted run ids — fully
   determined by the ingested row set, so ingest order cannot show
   through.  Graph keys are narrower than identities (a pid can recur
   across runs naming different processes), so key clashes remap the
   display pid (resp. perturb the flow tuple) deterministically; the
   identity, which is what queries join on, is untouched. *)
let merged_graph t =
  let open Faros_graph in
  let g = Graph.create ~sample:"store" () in
  let by_ident : (string, Graph.node) Hashtbl.t = Hashtbl.create 256 in
  let pid_map : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let next_pid = ref 900_000 in
  let fresh_pid () =
    while Graph.find g (Graph.K_proc !next_pid) <> None do incr next_pid done;
    !next_pid
  in
  let maps : (string, int array) Hashtbl.t = Hashtbl.create 16 in
  let rec merge_nodes = function
    | [] -> Ok ()
    | run_id :: rest ->
      let* r = find_run t run_id in
      let ords = sorted_ords r in
      let map = Array.make (List.length ords) (-1) in
      Hashtbl.replace maps run_id map;
      let rec per_ord = function
        | [] -> Ok ()
        | ord :: more ->
          let fields = Hashtbl.find r.r_nodes ord in
          let* id = req "ident" (field_str fields "ident") in
          let* node =
            match Hashtbl.find_opt by_ident id with
            | Some n -> Ok n
            | None ->
              let* kind = req "kind" (field_str fields "kind") in
              let remapped k =
                match field_int fields k with
                | Some pid -> (
                  match Hashtbl.find_opt pid_map (run_id, pid) with
                  | Some pid' -> Some pid'
                  | None -> Some pid)
                | None -> None
              in
              let* n =
                match kind with
                | "process" -> (
                  let* pid = req "pid" (field_int fields "pid") in
                  let* name = req "name" (field_str fields "name") in
                  let pid' =
                    if Graph.find g (Graph.K_proc pid) = None then pid
                    else fresh_pid ()
                  in
                  Hashtbl.replace pid_map (run_id, pid) pid';
                  let n = Graph.process_node g ~pid:pid' ~name in
                  Option.iter (Graph.set_exit_code n) (field_int fields "exit");
                  Graph.set_process_taint n
                    ~tainted_bytes:
                      (Option.value ~default:0 (field_int fields "tainted"))
                    ~netflow_bytes:
                      (Option.value ~default:0 (field_int fields "netflow"));
                  Ok n)
                | "flow" ->
                  let* src = req "src" (field_str fields "src") in
                  let* sport = req "sport" (field_int fields "sport") in
                  let* dst = req "dst" (field_str fields "dst") in
                  let* dport = req "dport" (field_int fields "dport") in
                  let rec place k =
                    let f =
                      {
                        Faros_os.Types.src_ip = Faros_os.Types.Ip.of_string src;
                        src_port = sport + (k * 100_000);
                        dst_ip = Faros_os.Types.Ip.of_string dst;
                        dst_port = dport;
                      }
                    in
                    if Graph.find g (Graph.K_flow f) = None then
                      Graph.flow_node g f
                    else place (k + 1)
                  in
                  Ok (place 0)
                | "region" ->
                  let* pid = req "pid" (remapped "pid") in
                  let* process = req "process" (field_str fields "process") in
                  let* vaddr = req "vaddr" (field_int fields "vaddr") in
                  let* len = req "len" (field_int fields "len") in
                  let types =
                    match Hashtbl.find_opt fields "types" with
                    | Some v -> Option.value ~default:[] (Json.to_strings v)
                    | None -> []
                  in
                  Ok (Graph.region_node g ~pid ~process ~vaddr ~len ~types)
                | "module" ->
                  let* pid = req "pid" (remapped "pid") in
                  let* image = req "image" (field_str fields "image") in
                  let* base = req "base" (field_int fields "base") in
                  Ok (Graph.module_node g ~pid ~image ~base)
                | _ -> intern_node g fields
              in
              Hashtbl.replace by_ident id n;
              Ok n
          in
          map.(ord) <- node.Graph.n_id;
          per_ord more
      in
      let* () =
        Result.map_error (Printf.sprintf "run %s: %s" run_id) (per_ord ords)
      in
      merge_nodes rest
  in
  let* () = merge_nodes (runs t) in
  List.iter
    (fun run_id ->
      match (Hashtbl.find_opt t.runs run_id, Hashtbl.find_opt maps run_id) with
      | Some r, Some map ->
        List.iter
          (fun e ->
            match edge_kind_of_name e.er_kind with
            | Some kind
              when e.er_src < Array.length map && e.er_dst < Array.length map
                   && map.(e.er_src) >= 0 && map.(e.er_dst) >= 0 ->
              Graph.record_edge g ~src:map.(e.er_src) ~dst:map.(e.er_dst) ~kind
                ~tick:e.er_tick ~last_tick:e.er_last ~count:e.er_count
                ~bytes:e.er_bytes
            | _ -> ())
          (sorted_erows r)
      | _ -> ())
    (runs t);
  Ok g

(* Deterministic exporters: Graphviz DOT for eyeballs, JSON for tools.

   Both walk nodes in id order and edges in insertion order, so a given
   replay always produces byte-identical output (pinned by the cram
   transcript and the campaign -j1 / -j4 fingerprint test). *)

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let node_attrs (n : Graph.node) =
  match n.n_kind with
  | Graph.Flow _ -> "shape=ellipse, style=filled, fillcolor=lightblue"
  | Graph.Process _ -> "shape=box"
  | Graph.File _ -> "shape=note, style=filled, fillcolor=lightyellow"
  | Graph.Module _ -> "shape=component, style=filled, fillcolor=lightgrey"
  | Graph.Region _ -> "shape=box3d, style=dashed"
  | Graph.Flag_site _ -> "shape=octagon, style=filled, fillcolor=salmon"

let edge_attrs (e : Graph.edge) =
  match e.e_kind with
  | Graph.Injected_into -> ", color=red, penwidth=2"
  | Graph.Flagged -> ", color=red"
  | Graph.Tainted_by -> ", style=dotted"
  | _ -> ""

let edge_label (e : Graph.edge) =
  let b = Buffer.create 24 in
  Buffer.add_string b (Graph.edge_kind_name e.e_kind);
  if e.e_count > 1 then Buffer.add_string b (Printf.sprintf " x%d" e.e_count);
  if e.e_bytes > 0 then Buffer.add_string b (Printf.sprintf " %dB" e.e_bytes);
  Buffer.add_string b (Printf.sprintf " @%d" e.e_tick);
  Buffer.contents b

let to_dot g =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "digraph \"%s\" {\n" (dot_escape (Graph.sample g));
  Buffer.add_string buf "  rankdir=LR;\n";
  Buffer.add_string buf "  node [fontname=\"sans\", fontsize=10];\n";
  Buffer.add_string buf "  edge [fontname=\"sans\", fontsize=9];\n";
  List.iter
    (fun (n : Graph.node) ->
      Printf.bprintf buf "  n%d [label=\"%s\", %s];\n" n.n_id
        (dot_escape (Graph.node_label n))
        (node_attrs n))
    (Graph.nodes g);
  List.iter
    (fun (e : Graph.edge) ->
      Printf.bprintf buf "  n%d -> n%d [label=\"%s\"%s];\n" e.e_src e.e_dst
        (dot_escape (edge_label e))
        (edge_attrs e))
    (Graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* -- JSON ----------------------------------------------------------------- *)

module Json = Faros_obs.Json

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let node_json (n : Graph.node) : Json.t =
  let extra : (string * Json.t) list =
    match n.n_kind with
    | Graph.Flow f ->
      [ ("src", Str (Faros_os.Types.Ip.to_string f.src_ip)); ("src_port", Int f.src_port);
        ("dst", Str (Faros_os.Types.Ip.to_string f.dst_ip)); ("dst_port", Int f.dst_port) ]
    | Graph.Process p ->
      [ ("pid", Json.Int p.p_pid); ("tainted_bytes", Int p.p_tainted_bytes);
        ("netflow_bytes", Int p.p_netflow_bytes) ]
      @ (match p.p_exit_code with Some c -> [ ("exit_code", Int c) ] | None -> [])
    | Graph.File fi ->
      [ ("version_lo", Int fi.fi_version_lo); ("version_hi", Int fi.fi_version_hi) ]
    | Graph.Module m -> [ ("pid", Int m.m_pid); ("base", Int m.m_base) ]
    | Graph.Region r ->
      [ ("pid", Int r.r_pid); ("vaddr", Int r.r_vaddr); ("len", Int r.r_len);
        ("types", List (List.map (fun ty -> Json.Str ty) r.r_types)) ]
    | Graph.Flag_site fl ->
      [ ("pc", Int fl.fl_pc); ("tick", Int fl.fl_tick); ("process", Str fl.fl_process) ]
  in
  Obj
    (("id", Int n.n_id) :: ("kind", Str (Graph.kind_name n))
    :: ("label", Str (Graph.node_label n)) :: extra)

let edge_json (e : Graph.edge) : Json.t =
  Obj
    [ ("src", Int e.e_src); ("dst", Int e.e_dst);
      ("kind", Str (Graph.edge_kind_name e.e_kind)); ("tick", Int e.e_tick);
      ("last_tick", Int e.e_last_tick); ("count", Int e.e_count); ("bytes", Int e.e_bytes) ]

let slice_json (s : Slice.t) : Json.t =
  let chains = List.map (fun c -> Json.Str (Slice.render_chain c)) s.sl_chains in
  Obj
    [ ("flag", Int s.sl_flag.n_id); ("flag_label", Str (Graph.node_label s.sl_flag));
      ("netflow_origin", Bool (Slice.has_netflow_origin s));
      ("origins", ints (List.map (fun (n : Graph.node) -> n.n_id) s.sl_origins));
      ("nodes", ints s.sl_nodes); ("chains", List chains) ]

let to_json ?(slices = []) g : Json.t =
  let list f xs = Json.List (List.map f xs) in
  Obj
    [ ( "graph",
        Obj
          [ ("sample", Str (Graph.sample g)); ("node_count", Int (Graph.node_count g));
            ("edge_count", Int (Graph.edge_count g));
            ("nodes", list node_json (Graph.nodes g));
            ("edges", list edge_json (Graph.edges g)); ("slices", list slice_json slices) ] ) ]

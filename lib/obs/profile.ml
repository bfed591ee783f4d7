(* Hierarchical span profiler.

   Nestable named spans over a pluggable monotonic clock, aggregated into
   a call tree: each distinct (parent chain, name) pair is one node
   carrying call count, inclusive wall time, and minor/major GC
   allocation-word deltas.  Self time/allocation are derived at render
   time (inclusive minus the sum of the children), so the hot path never
   walks the tree.

   The disabled profiler is a constant constructor, mirroring the null
   trace sink: every instrumentation point costs one branch and allocates
   nothing, which is what lets the per-syscall sites (kernel dispatch,
   DIFT tag insertion, online graph building) call [enter]/[exit]
   unconditionally.  The enabled path is one small-hashtable lookup, one
   clock read and one [Gc.counters] read per enter/exit.  Nothing opens
   a span per guest instruction: instruction-level work is counted by
   the metrics registry, so profiling does not distort the replay it
   measures.

   The clock is injectable — tests use a fake integer clock for fully
   deterministic span tables; the default reads wall time in
   nanoseconds.  GC deltas include the profiler's own frame allocation
   (a few words per span), which is measurement noise of the same order
   as the timer overhead and is documented rather than hidden.

   Trees from different workers merge commutatively ({!merge}), which is
   how a campaign folds per-job profiles into one whole-fleet hotspot
   table. *)

type node = {
  pn_name : string;
  pn_depth : int;
  mutable pn_count : int;
  mutable pn_total_ns : int;
  mutable pn_minor_words : int;
  mutable pn_major_words : int;
  mutable pn_order : node list;  (* children, first-entered order, reversed *)
  pn_children : (string, node) Hashtbl.t;
}

let mk_node name depth =
  {
    pn_name = name;
    pn_depth = depth;
    pn_count = 0;
    pn_total_ns = 0;
    pn_minor_words = 0;
    pn_major_words = 0;
    pn_order = [];
    pn_children = Hashtbl.create 4;
  }

(* The frame stack is four parallel arrays indexed by depth rather than a
   list of records: entering a span writes into preallocated slots, so
   the per-span allocation is only what [Gc.counters] itself boxes.
   Float arrays are unboxed, so storing the counter snapshots is free. *)
type state = {
  clock : unit -> int;
  root : node;
  mutable depth : int;  (* frames in use *)
  mutable f_nodes : node array;
  mutable f_starts : int array;  (* start_ns per frame *)
  mutable f_minors : float array;
  mutable f_majors : float array;
  mutable cur : node;
}

type t = Disabled | Enabled of state

let disabled = Disabled

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

let initial_depth = 64

let create ?(clock = default_clock) () =
  let root = mk_node "" (-1) in
  Enabled
    {
      clock;
      root;
      depth = 0;
      f_nodes = Array.make initial_depth root;
      f_starts = Array.make initial_depth 0;
      f_minors = Array.make initial_depth 0.;
      f_majors = Array.make initial_depth 0.;
      cur = root;
    }

let enabled = function Disabled -> false | Enabled _ -> true

let grow s =
  let n = Array.length s.f_nodes in
  let extend a fill =
    let a' = Array.make (2 * n) fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  s.f_nodes <- extend s.f_nodes s.root;
  s.f_starts <- extend s.f_starts 0;
  s.f_minors <- extend s.f_minors 0.;
  s.f_majors <- extend s.f_majors 0.

(* [Hashtbl.find] raising on a miss keeps the steady state (every span
   name already interned under its parent) allocation-free, unlike
   [find_opt]'s [Some]. *)
let child_of parent name =
  match Hashtbl.find parent.pn_children name with
  | n -> n
  | exception Not_found ->
    let n = mk_node name (parent.pn_depth + 1) in
    Hashtbl.replace parent.pn_children name n;
    parent.pn_order <- n :: parent.pn_order;
    n

let enter t name =
  match t with
  | Disabled -> ()
  | Enabled s ->
    let node = child_of s.cur name in
    let d = s.depth in
    if d = Array.length s.f_nodes then grow s;
    let minor, _, major = Gc.counters () in
    s.f_nodes.(d) <- node;
    s.f_minors.(d) <- minor;
    s.f_majors.(d) <- major;
    s.f_starts.(d) <- s.clock ();
    s.depth <- d + 1;
    s.cur <- node

let exit t =
  match t with
  | Disabled -> ()
  | Enabled s ->
    if s.depth = 0 then ()  (* unbalanced exit: ignore, don't poison the run *)
    else begin
      let d = s.depth - 1 in
      let dt = s.clock () - s.f_starts.(d) in
      let minor, _, major = Gc.counters () in
      let n = s.f_nodes.(d) in
      n.pn_count <- n.pn_count + 1;
      n.pn_total_ns <- n.pn_total_ns + dt;
      n.pn_minor_words <-
        n.pn_minor_words + int_of_float (minor -. s.f_minors.(d));
      n.pn_major_words <-
        n.pn_major_words + int_of_float (major -. s.f_majors.(d));
      s.depth <- d;
      s.cur <- (if d = 0 then s.root else s.f_nodes.(d - 1))
    end

(* [finally] closes every frame above the entry depth, not just the top
   one: an exception that skips a bare [exit] (a raising syscall handler
   leaves [kernel.syscall] open) would otherwise leave this span open and
   nest every later span under it. *)
let with_span t name f =
  match t with
  | Disabled -> f ()
  | Enabled s ->
    let d = s.depth in
    enter t name;
    Fun.protect ~finally:(fun () -> while s.depth > d do exit t done) f

(* -- reading the tree -- *)

type span = {
  sp_path : string;  (* "replay/kernel.syscall" *)
  sp_name : string;
  sp_depth : int;
  sp_count : int;
  sp_total_ns : int;
  sp_self_ns : int;
  sp_minor_words : int;
  sp_major_words : int;
  sp_self_minor_words : int;
}

let children_in_order n = List.rev n.pn_order

let span_of ~path n =
  let child_total, child_minor =
    List.fold_left
      (fun (t, m) c -> (t + c.pn_total_ns, m + c.pn_minor_words))
      (0, 0) n.pn_order
  in
  {
    sp_path = path;
    sp_name = n.pn_name;
    sp_depth = n.pn_depth;
    sp_count = n.pn_count;
    sp_total_ns = n.pn_total_ns;
    sp_self_ns = max 0 (n.pn_total_ns - child_total);
    sp_minor_words = n.pn_minor_words;
    sp_major_words = n.pn_major_words;
    sp_self_minor_words = max 0 (n.pn_minor_words - child_minor);
  }

(* Preorder, children in first-entered order: deterministic for a
   deterministic workload regardless of what the clock reads. *)
let spans = function
  | Disabled -> []
  | Enabled s ->
    let rec walk prefix n acc =
      List.fold_left
        (fun acc c ->
          let path = if prefix = "" then c.pn_name else prefix ^ "/" ^ c.pn_name in
          walk path c (span_of ~path c :: acc))
        acc (children_in_order n)
    in
    List.rev (walk "" s.root [])

(* Inclusive time of the top-level spans: the denominator for coverage. *)
let total_ns = function
  | Disabled -> 0
  | Enabled s -> List.fold_left (fun acc c -> acc + c.pn_total_ns) 0 s.root.pn_order

(* -- merging -- *)

(* Fold [src]'s tree into [into], adding counts, times and allocation per
   matching path; paths only in [src] are created in [src]'s own child
   order.  Addition is commutative and associative, so per-worker
   profiles merge to the same tree whatever the completion order —
   rendering sorts nothing away, it just inherits determinism from the
   merge order being the (deterministic) submission order. *)
let merge ~into src =
  match (into, src) with
  | Disabled, _ | _, Disabled -> ()
  | Enabled into_s, Enabled src_s ->
    let rec fold dst src =
      List.iter
        (fun c ->
          let d = child_of dst c.pn_name in
          d.pn_count <- d.pn_count + c.pn_count;
          d.pn_total_ns <- d.pn_total_ns + c.pn_total_ns;
          d.pn_minor_words <- d.pn_minor_words + c.pn_minor_words;
          d.pn_major_words <- d.pn_major_words + c.pn_major_words;
          fold d c)
        (children_in_order src)
    in
    fold into_s.root src_s.root

(* -- rendering -- *)

let ms ns = float ns /. 1e6

(* The call tree: indented, first-entered order. *)
let pp_tree ppf t =
  Fmt.pf ppf "%-44s %10s %12s %12s %12s@." "span" "count" "total-ms" "self-ms"
    "minor-w";
  List.iter
    (fun sp ->
      Fmt.pf ppf "%-44s %10d %12.3f %12.3f %12d@."
        (String.make (2 * sp.sp_depth) ' ' ^ sp.sp_name)
        sp.sp_count (ms sp.sp_total_ns) (ms sp.sp_self_ns) sp.sp_minor_words)
    (spans t)

(* The hotspot table: flat, sorted by self time (ties broken by path so
   equal-cost spans — every span under a fake constant clock — render in
   a stable order). *)
let pp_hotspots ?(top = 20) ppf t =
  let all =
    List.sort
      (fun a b ->
        match compare b.sp_self_ns a.sp_self_ns with
        | 0 -> compare a.sp_path b.sp_path
        | c -> c)
      (spans t)
  in
  let total = total_ns t in
  Fmt.pf ppf "%-52s %10s %12s %12s %7s@." "span" "count" "self-ms" "total-ms"
    "self%";
  let rec take n = function
    | sp :: rest when n > 0 ->
      Fmt.pf ppf "%-52s %10d %12.3f %12.3f %6.1f%%@." sp.sp_path sp.sp_count
        (ms sp.sp_self_ns) (ms sp.sp_total_ns)
        (if total = 0 then 0. else 100. *. float sp.sp_self_ns /. float total);
      take (n - 1) rest
    | _ -> ()
  in
  take top all

let span_members sp : (string * Json.t) list =
  [ ("path", Str sp.sp_path); ("count", Int sp.sp_count); ("total_ns", Int sp.sp_total_ns);
    ("self_ns", Int sp.sp_self_ns); ("minor_words", Int sp.sp_minor_words);
    ("major_words", Int sp.sp_major_words) ]

let to_json t : Json.t =
  let spans = List.map (fun sp -> Json.Obj (span_members sp)) (spans t) in
  Obj [ ("profile", Obj [ ("total_ns", Int (total_ns t)); ("spans", List spans) ]) ]

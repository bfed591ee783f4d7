(* Unified streaming JSONL sink: the one event channel.

   One append-only channel that every observability producer — metrics,
   structured trace events, series, profiler, farm, graph — writes
   through, so a whole campaign lands in a single stream a fleet-side
   consumer can tail.  Each line is one self-describing JSON object
   carrying a schema version ("v") and a type tag ("type"); the nine
   event types are

     metric_snapshot   a whole registry, rendered once per source
     trace_event       one structured trace event (worker/guest lanes)
     series_point      one sampled time-series row
     profile_span      one aggregated profiler span
     job_lifecycle     submit/start/finish of one farm job
     graph_flag        per-sample attack-graph summary at a flag site
     graph_segment     begin/end marker of one graph segment flush
     graph_node        one spilled graph node row (or attribute patch)
     graph_edge        one spilled, coalesced graph edge row

   The null sink is a constant constructor, so the hot-path discipline
   of every instrumented layer is

     if Sink.enabled sink then Sink.trace_event sink ~cat ~name ~pid args

   — one branch and no allocation when the channel is off.  The
   buffering sink is bounded with an explicit drop counter, so loss is
   visible, never silent.  The channel sink streams every line straight
   to an [out_channel] and retains nothing, which is what makes
   bounded-memory graph spilling actually bounded.  Lines are validated
   downstream by the same [Json.well_formed] checker the tests use
   (`faros check-json --jsonl`).

   Trace-event timestamps come from the sink's clock — the FAROS plugin
   points it at the kernel tick counter, so event times are instruction
   counts, the only meaningful time base a deterministic replay has.  The
   Chrome trace_event export is a second rendering of the same rows:
   they are parsed back with [Json.parse], so the JSONL stream and the
   trace viewer (chrome://tracing, Perfetto) cannot disagree. *)

let schema_version = 1

type live = {
  out : out_channel option;  (* Some: stream each line, retain nothing *)
  limit : int;
  mutable rev_lines : string list;  (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable clock : unit -> int;  (* trace_event timestamps *)
  sample : string;  (* rendered "sample" member of trace rows, or "" *)
  worker : int option;  (* Some w: trace rows take pid w, tid guest pid *)
}

type t = Null | Live of live

let null = Null

let live ?out ?(limit = 1_000_000) ?sample ?worker () =
  Live
    {
      out;
      limit;
      rev_lines = [];
      count = 0;
      dropped = 0;
      clock = (fun () -> 0);
      sample =
        (match sample with
        | Some s -> Printf.sprintf {|"sample":"%s",|} (Json.escape s)
        | None -> "");
      worker;
    }

let create ?limit ?sample ?worker () = live ?limit ?sample ?worker ()
let channel oc = live ~out:oc ~limit:max_int ()

let enabled = function Null -> false | Live _ -> true
let events = function Null -> 0 | Live l -> l.count
let dropped = function Null -> 0 | Live l -> l.dropped
let lines = function Null -> [] | Live l -> List.rev l.rev_lines

let contents t =
  match lines t with [] -> "" | ls -> String.concat "\n" ls ^ "\n"

let set_clock t clock = match t with Null -> () | Live l -> l.clock <- clock

let push t line =
  match t with
  | Null -> ()
  | Live l ->
    if l.count >= l.limit then l.dropped <- l.dropped + 1
    else begin
      l.count <- l.count + 1;
      match l.out with
      | Some oc ->
        output_string oc line;
        output_char oc '\n'
      | None -> l.rev_lines <- line :: l.rev_lines
    end

(* Fold a finished sink into [into], the way [Metrics.merge] and
   [Profile.merge] fold registries: every row is pushed again under
   [into]'s own limit, and [src]'s drops add to [into]'s. *)
let merge ~into src =
  match (into, src) with
  | Null, _ | _, Null -> ()
  | Live l, Live s ->
    List.iter (push into) (List.rev s.rev_lines);
    l.dropped <- l.dropped + s.dropped

let line t typ body =
  match t with
  | Null -> ()
  | Live _ ->
    push t
      (Printf.sprintf {|{"v":%d,"type":"%s",%s}|} schema_version typ body)

(* -- typed emitters -- *)

(* [Metrics.to_json] renders {"metrics":[...]} — splice the array in. *)
let metric_snapshot t ~source metrics =
  if enabled t then
    line t "metric_snapshot"
      (Printf.sprintf {|"source":"%s",%s|} (Json.escape source)
         (let j = Metrics.to_json metrics in
          String.sub j 1 (String.length j - 2)))

let trace_event t ~cat ~name ~pid args =
  match t with
  | Null -> ()
  | Live l ->
    let pid, tid = match l.worker with Some w -> (w, pid) | None -> (pid, pid) in
    line t "trace_event"
      (Printf.sprintf {|%s"name":"%s","cat":"%s","ts":%d,"pid":%d,"tid":%d,"args":%s|}
         l.sample (Json.escape name) (Json.escape cat) (l.clock ()) pid tid
         (Json.to_string (Json.Obj args)))

let series_point t ~sample ~columns ~row =
  if enabled t then begin
    let n = min (List.length columns) (Array.length row) in
    let fields =
      List.filteri (fun i _ -> i < n) columns
      |> List.mapi (fun i c ->
             Printf.sprintf {|"%s":%d|} (Json.escape c) row.(i))
      |> String.concat ","
    in
    line t "series_point"
      (Printf.sprintf {|"sample":"%s",%s|} (Json.escape sample) fields)
  end

let profile_span t ~source (sp : Profile.span) =
  if enabled t then
    line t "profile_span"
      (Printf.sprintf
         {|"source":"%s","path":"%s","count":%d,"total_ns":%d,"self_ns":%d,"minor_words":%d,"major_words":%d|}
         (Json.escape source)
         (Json.escape sp.Profile.sp_path)
         sp.Profile.sp_count sp.Profile.sp_total_ns sp.Profile.sp_self_ns
         sp.Profile.sp_minor_words sp.Profile.sp_major_words)

let job_lifecycle t ~job ~worker ~event ?verdict ?wall_s () =
  if enabled t then begin
    let verdict =
      match verdict with
      | Some v -> Printf.sprintf {|,"verdict":"%s"|} (Json.escape v)
      | None -> ""
    in
    let wall =
      match wall_s with
      | Some w -> Printf.sprintf {|,"wall_s":%.6f|} w
      | None -> ""
    in
    line t "job_lifecycle"
      (Printf.sprintf {|"job":"%s","worker":%d,"event":"%s"%s%s|}
         (Json.escape job) worker (Json.escape event) verdict wall)
  end

let graph_flag t ~sample ~flag_sites ~nodes ~edges ~slice_nodes ~slice_origins
    ~netflow_origin =
  if enabled t then
    line t "graph_flag"
      (Printf.sprintf
         {|"sample":"%s","flag_sites":%d,"nodes":%d,"edges":%d,"slice_nodes":%d,"slice_origins":%d,"netflow_origin":%b|}
         (Json.escape sample) flag_sites nodes edges slice_nodes slice_origins
         netflow_origin)

(* -- graph segment rows --------------------------------------------------

   The streaming forensic store's on-disk format (lib/query).  Every row
   carries the producing run id and a per-run monotone sequence number:
   the (run, seq) pair is the idempotence key a store deduplicates
   re-ingested segments by.  Node rows come in two shapes — full rows
   (ident + kind + fields, emitted when a live node is spilled) and patch
   rows (ord + a field subset, emitted when an already-spilled node's
   attributes changed after retirement). *)

let graph_segment t ~run ~seq ~event ~nodes ~edges =
  if enabled t then
    line t "graph_segment"
      (Printf.sprintf {|"run":"%s","seq":%d,"event":"%s","nodes":%d,"edges":%d|}
         (Json.escape run) seq (Json.escape event) nodes edges)

let graph_node t ~run ~seq ~ord ?ident ?kind ~fields () =
  if enabled t then begin
    let head =
      match (ident, kind) with
      | Some ident, Some kind ->
        Printf.sprintf {|"ord":%d,"ident":"%s","kind":"%s"|} ord
          (Json.escape ident) (Json.escape kind)
      | Some ident, None ->
        Printf.sprintf {|"ord":%d,"ident":"%s"|} ord (Json.escape ident)
      | None, Some kind ->
        Printf.sprintf {|"ord":%d,"kind":"%s"|} ord (Json.escape kind)
      | None, None -> Printf.sprintf {|"ord":%d|} ord
    in
    let body = if fields = "" then head else head ^ "," ^ fields in
    line t "graph_node"
      (Printf.sprintf {|"run":"%s","seq":%d,%s|} (Json.escape run) seq body)
  end

let graph_edge t ~run ~seq ~eord ~src ~dst ~kind ~tick ~last_tick ~count ~bytes =
  if enabled t then
    line t "graph_edge"
      (Printf.sprintf
         {|"run":"%s","seq":%d,"eord":%d,"src":%d,"dst":%d,"kind":"%s","tick":%d,"last_tick":%d,"count":%d,"bytes":%d|}
         (Json.escape run) seq eord src dst (Json.escape kind) tick last_tick
         count bytes)

(* -- Chrome trace_event export -------------------------------------------- *)

let trace_row line =
  match Json.parse line with
  | Ok row when Json.str_mem row "type" = Some "trace_event" -> Some row
  | Ok _ | Error _ -> None

let trace_rows t = List.filter_map trace_row (lines t)

(* One instant event per row; [ts] is the kernel tick, which the viewer
   renders as microseconds — a tick is the natural time unit of a
   deterministic replay.  pid and tid are distinct fields: a campaign row
   carries the worker index in pid and the guest pid in tid, so each
   worker renders as its own process lane with per-guest thread rows
   inside it. *)
let chrome_event row =
  let str k = Json.escape (Option.value ~default:"" (Json.str_mem row k)) in
  let int k = Option.value ~default:0 (Json.int_mem row k) in
  Printf.sprintf
    {|{"name":"%s","cat":"%s","ph":"i","s":"g","ts":%d,"pid":%d,"tid":%d,"args":%s}|}
    (str "name") (str "cat") (int "ts") (int "pid") (int "tid")
    (Json.to_string (Option.value ~default:(Json.Obj []) (Json.mem row "args")))

let to_chrome_json t =
  (* Parse and render row by row, so no parsed row outlives its event. *)
  let events =
    List.filter_map
      (fun line -> Option.map chrome_event (trace_row line))
      (lines t)
  in
  Printf.sprintf
    {|{"traceEvents":[%s],"displayTimeUnit":"ms","otherData":{"events":%d,"dropped":%d}}|}
    (String.concat "," events) (List.length events) (dropped t)

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
   (`faros check-json --jsonl`).  Every emitter passes its members as a
   [Json.t] list and [line] puts "v" and "type" in front, so [Json] is
   the only code that writes JSON text.

   Trace-event timestamps come from the sink's clock — the FAROS plugin
   points it at the kernel tick counter, so event times are instruction
   counts, the only meaningful time base a deterministic replay has.  A
   buffered trace_event row keeps its fields rather than its line, and
   both the JSONL line and the Chrome trace_event export render from
   those fields, so the JSONL stream and the trace viewer
   (chrome://tracing, Perfetto) cannot disagree. *)

let schema_version = 1

(* A buffered row.  trace_event rows, the bulk of any traced stream, keep
   their fields: the JSONL line and the Chrome event both render from
   them, and fields are smaller than a [Json.t].  Every other row keeps
   its rendered line. *)
type trace = {
  sample : string option;  (* the emitting sink's stamp, kept across merge *)
  name : string;
  cat : string;
  ts : int;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

type row = Line of string | Trace of trace

type live = {
  out : out_channel option;  (* Some: stream each line, retain nothing *)
  limit : int;
  mutable rev_rows : row list;  (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable clock : unit -> int;  (* trace_event timestamps *)
  sample : string option;  (* stamped on trace rows *)
  worker : int option;  (* Some w: trace rows take pid w, tid guest pid *)
}

type t = Null | Live of live

let null = Null

let live ?out ?(limit = 1_000_000) ?sample ?worker () =
  Live
    { out; limit; rev_rows = []; count = 0; dropped = 0; clock = (fun () -> 0);
      sample; worker }

let create ?limit ?sample ?worker () = live ?limit ?sample ?worker ()
let channel oc = live ~out:oc ~limit:max_int ()

let enabled = function Null -> false | Live _ -> true
let events = function Null -> 0 | Live l -> l.count
let dropped = function Null -> 0 | Live l -> l.dropped
let set_clock t clock = match t with Null -> () | Live l -> l.clock <- clock

(* -- rendering ------------------------------------------------------------ *)

let row_json typ members : Json.t =
  Obj (("v", Int schema_version) :: ("type", Str typ) :: members)

let str_opt key = function Some s -> [ (key, Json.Str s) ] | None -> []

let trace_json (r : trace) =
  row_json "trace_event"
    (str_opt "sample" r.sample
    @ [ ("name", Str r.name); ("cat", Str r.cat); ("ts", Int r.ts);
        ("pid", Int r.pid); ("tid", Int r.tid); ("args", Obj r.args) ])

let render buf = function
  | Line s -> Buffer.add_string buf s
  | Trace r -> Json.to_buffer buf (trace_json r)

let line_of = function Line s -> s | Trace r -> Json.to_string (trace_json r)

let rows = function Null -> [] | Live l -> List.rev l.rev_rows
let lines t = List.map line_of (rows t)

let contents t =
  let buf = Buffer.create 4096 in
  List.iter (fun row -> render buf row; Buffer.add_char buf '\n') (rows t);
  Buffer.contents buf

let push t row =
  match t with
  | Null -> ()
  | Live l ->
    if l.count >= l.limit then l.dropped <- l.dropped + 1
    else begin
      l.count <- l.count + 1;
      match l.out with
      | Some oc ->
        output_string oc (line_of row);
        output_char oc '\n'
      | None -> l.rev_rows <- row :: l.rev_rows
    end

(* Fold a finished sink into [into], the way [Metrics.merge] and
   [Profile.merge] fold registries: every row is pushed again under
   [into]'s own limit, and [src]'s drops add to [into]'s. *)
let merge ~into src =
  match (into, src) with
  | Null, _ | _, Null -> ()
  | Live l, Live s ->
    List.iter (push into) (List.rev s.rev_rows);
    l.dropped <- l.dropped + s.dropped

let line t typ members =
  if enabled t then push t (Line (Json.to_string (row_json typ members)))

(* -- typed emitters -- *)

(* A snapshot row is the registry's own document with [source] in front. *)
let metric_snapshot t ~source metrics =
  if enabled t then
    let members =
      match Metrics.to_json metrics with Obj ms -> ms | v -> [ ("metrics", v) ]
    in
    line t "metric_snapshot" (("source", Str source) :: members)

let trace_event t ~cat ~name ~pid args =
  match t with
  | Null -> ()
  | Live l ->
    let pid, tid = match l.worker with Some w -> (w, pid) | None -> (pid, pid) in
    push t (Trace { sample = l.sample; name; cat; ts = l.clock (); pid; tid; args })

let series_point t ~sample ~columns ~row =
  if enabled t then begin
    let n = min (List.length columns) (Array.length row) in
    let cells =
      List.filteri (fun i _ -> i < n) columns
      |> List.mapi (fun i c -> (c, Json.Int row.(i)))
    in
    line t "series_point" (("sample", Str sample) :: cells)
  end

let profile_span t ~source sp =
  if enabled t then
    line t "profile_span" (("source", Str source) :: Profile.span_members sp)

let job_lifecycle t ~job ~worker ~event ?verdict ?wall_s () =
  if enabled t then
    line t "job_lifecycle"
      ([ ("job", Json.Str job); ("worker", Int worker); ("event", Str event) ]
      @ str_opt "verdict" verdict
      @ match wall_s with Some w -> [ ("wall_s", Json.Float w) ] | None -> [])

let graph_flag t ~sample ~flag_sites ~nodes ~edges ~slice_nodes ~slice_origins
    ~netflow_origin =
  if enabled t then
    line t "graph_flag"
      [ ("sample", Str sample); ("flag_sites", Int flag_sites); ("nodes", Int nodes);
        ("edges", Int edges); ("slice_nodes", Int slice_nodes);
        ("slice_origins", Int slice_origins); ("netflow_origin", Bool netflow_origin) ]

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
      [ ("run", Str run); ("seq", Int seq); ("event", Str event); ("nodes", Int nodes);
        ("edges", Int edges) ]

let graph_node t ~run ~seq ~ord ?ident ?kind ~fields () =
  if enabled t then
    line t "graph_node"
      ((("run", Json.Str run) :: ("seq", Int seq) :: ("ord", Int ord)
        :: str_opt "ident" ident)
      @ str_opt "kind" kind @ fields)

let graph_edge t ~run ~seq ~eord ~src ~dst ~kind ~tick ~last_tick ~count ~bytes =
  if enabled t then
    line t "graph_edge"
      [ ("run", Str run); ("seq", Int seq); ("eord", Int eord); ("src", Int src);
        ("dst", Int dst); ("kind", Str kind); ("tick", Int tick);
        ("last_tick", Int last_tick); ("count", Int count); ("bytes", Int bytes) ]

(* -- Chrome trace_event export -------------------------------------------- *)

(* The buffered trace rows' fields, oldest first. *)
let traces = function
  | Null -> []
  | Live l ->
    List.fold_left
      (fun acc row -> match row with Trace r -> r :: acc | Line _ -> acc)
      [] l.rev_rows

let trace_count t = List.length (traces t)
let trace_rows t = List.map trace_json (traces t)

(* One instant event per row; [ts] is the kernel tick, which the viewer
   renders as microseconds — a tick is the natural time unit of a
   deterministic replay.  pid and tid are distinct fields: a campaign row
   carries the worker index in pid and the guest pid in tid, so each
   worker renders as its own process lane with per-guest thread rows
   inside it. *)
let chrome_event r : Json.t =
  Obj
    [ ("name", Str r.name); ("cat", Str r.cat); ("ph", Str "i"); ("s", Str "g");
      ("ts", Int r.ts); ("pid", Int r.pid); ("tid", Int r.tid); ("args", Obj r.args) ]

(* The document is one [Json.t] except for its events: a value per event
   would cost three times the row it renders, so they stream into the
   rendered envelope's empty [traceEvents] array one at a time.  An event
   renders to about 130 bytes; reserving 256 spares the buffer a final
   doubling, and reserved bytes never written take no resident memory. *)
let to_chrome_json t =
  let traces = traces t in
  let other = [ ("events", Json.Int (List.length traces)); ("dropped", Int (dropped t)) ] in
  let envelope =
    Json.to_string
      (Obj [ ("traceEvents", List []); ("displayTimeUnit", Str "ms"); ("otherData", Obj other) ])
  in
  let hole = String.index envelope ']' in
  let buf = Buffer.create (String.length envelope + (256 * List.length traces)) in
  Buffer.add_substring buf envelope 0 hole;
  traces
  |> List.iteri (fun i r ->
         if i > 0 then Buffer.add_char buf ',';
         Json.to_buffer buf (chrome_event r));
  Buffer.add_substring buf envelope hole (String.length envelope - hole);
  Buffer.contents buf

(* Structured trace events.

   Instrumented layers (engine, detector, syscall dispatch) emit typed
   events through a sink.  The disabled sink is a
   constant constructor, so the hot-path discipline is

     if Trace.enabled sink then Trace.emit sink ~cat ~name ~pid args

   — one branch and no allocation when tracing is off.  The collector
   sink buffers events (bounded; overflow is counted, not silently
   dropped) and exports them in Chrome's trace_event JSON format, so a
   whole replay can be opened in a trace viewer (chrome://tracing,
   Perfetto).

   Timestamps come from a pluggable clock — the FAROS plugin points it at
   the kernel tick counter, so event times are instruction counts, the
   only meaningful time base a deterministic replay has. *)

type arg = Int of int | Str of string | Bool of bool

type event = {
  ev_name : string;
  ev_cat : string;  (* "engine" | "detector" | "syscall" | "block" | "shadow" *)
  ev_ts : int;  (* kernel tick at emission *)
  ev_pid : int;  (* process domain: guest pid/asid, or farm worker index *)
  ev_tid : int;  (* thread lane within the domain; defaults to ev_pid *)
  ev_args : (string * arg) list;
}

type collector = {
  mutable clock : unit -> int;
  mutable rev_events : event list;  (* newest first *)
  mutable count : int;
  limit : int;
  mutable dropped : int;
}

type t = Null | Collector of collector

let null = Null

let collector ?(limit = 1_000_000) () =
  Collector
    { clock = (fun () -> 0); rev_events = []; count = 0; limit; dropped = 0 }

let enabled = function Null -> false | Collector _ -> true

let set_clock t clock =
  match t with Null -> () | Collector c -> c.clock <- clock

(* Buffer a pre-built event verbatim (same bounded-drop discipline as
   [emit]); this is how a campaign folds per-job collectors into one
   fleet-wide trace, rewriting pid/tid to worker/guest lanes. *)
let add_event t e =
  match t with
  | Null -> ()
  | Collector c ->
    if c.count >= c.limit then c.dropped <- c.dropped + 1
    else begin
      c.rev_events <- e :: c.rev_events;
      c.count <- c.count + 1
    end

let emit t ?tid ?ts ~cat ~name ~pid args =
  match t with
  | Null -> ()
  | Collector c ->
    add_event t
      {
        ev_name = name;
        ev_cat = cat;
        ev_ts = (match ts with Some ts -> ts | None -> c.clock ());
        ev_pid = pid;
        ev_tid = (match tid with Some tid -> tid | None -> pid);
        ev_args = args;
      }

let events = function
  | Null -> []
  | Collector c -> List.rev c.rev_events

let count = function Null -> 0 | Collector c -> c.count
let dropped = function Null -> 0 | Collector c -> c.dropped

(* Events of one category, oldest first. *)
let by_category t cat = List.filter (fun e -> e.ev_cat = cat) (events t)

(* -- Chrome trace_event export -- *)

let arg_json = function
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf {|"%s"|} (Json.escape s)
  | Bool b -> if b then "true" else "false"

(* One instant event per emission; [ts] is the kernel tick, which the
   viewer renders as microseconds — a tick is the natural time unit of a
   deterministic replay.  pid and tid are distinct fields: a campaign
   trace puts the worker index in pid and the guest pid in tid, so each
   worker renders as its own process lane in chrome://tracing with
   per-guest thread rows inside it. *)
let event_json e =
  let args =
    e.ev_args
    |> List.map (fun (k, v) ->
           Printf.sprintf {|"%s":%s|} (Json.escape k) (arg_json v))
    |> String.concat ","
  in
  Printf.sprintf
    {|{"name":"%s","cat":"%s","ph":"i","s":"g","ts":%d,"pid":%d,"tid":%d,"args":{%s}}|}
    (Json.escape e.ev_name) (Json.escape e.ev_cat) e.ev_ts e.ev_pid e.ev_tid
    args

let to_chrome_json t =
  Printf.sprintf
    {|{"traceEvents":[%s],"displayTimeUnit":"ms","otherData":{"events":%d,"dropped":%d}}|}
    (String.concat "," (List.map event_json (events t)))
    (count t) (dropped t)

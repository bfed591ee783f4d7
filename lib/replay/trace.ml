(* Recorded non-deterministic input.

   Everything else in the guest is deterministic (pure-function scheduler,
   synthetic devices, no wall clock), so a trace of network input and
   keystrokes is sufficient to replay a whole-system execution exactly —
   the property PANDA's record/replay provides the paper.  The trace also
   carries integrity metadata so the replayer can detect divergence.

   Outbound connections are recorded as one [Answer] per actor call — the
   connect, then each send — and [actors] rebuilds actors that give the
   same answers, so replay answers each call as recording did.

   Host-initiated (inbound) connections are recorded as tick-stamped
   [Inbound] events: the recorder stores each delivered event together
   with the slice-boundary tick at which the netstack pump delivered it,
   and the replayer feeds the same schedule back into the pump.  The file
   format is "FTR3"; [parse] refuses the older formats, which recorded
   received chunks instead of answers. *)

type event =
  | Answer of Faros_os.Types.flow * string list
      (* one actor call on an outbound flow and the chunks it answered *)
  | Key of int
  | Inbound of int * Faros_os.Netstack.inbound_event
      (* delivery tick + the event the pump delivered *)

type t = {
  events : event list;  (* in arrival order *)
  final_tick : int;  (* instruction count when recording stopped *)
  syscall_count : int;
}

let empty = { events = []; final_tick = 0; syscall_count = 0 }

(* One actor per endpoint that answered at record time.  It answers each
   call on a flow with that flow's next recorded answer, and with nothing
   once they run out.  Each flow reads the trace through its own cursor,
   so the actors copy no answer; the cursors are fresh on every call, so
   one trace can be replayed many times. *)
let actors t =
  let cursors = Hashtbl.create 4 in
  let rec answer_after flow = function
    | Answer (f, chunks) :: rest when Faros_os.Types.flow_equal f flow -> (chunks, rest)
    | _ :: rest -> answer_after flow rest
    | [] -> ([], [])
  in
  let next flow =
    let chunks, rest =
      answer_after flow (Option.value (Hashtbl.find_opt cursors flow) ~default:t.events)
    in
    Hashtbl.replace cursors flow rest;
    chunks
  in
  let endpoints = Hashtbl.create 4 in
  List.iter
    (function
      | Answer (f, _) -> Hashtbl.replace endpoints (f.Faros_os.Types.src_ip, f.src_port) ()
      | Key _ | Inbound _ -> ())
    t.events;
  Hashtbl.fold
    (fun (ip, port) () acc ->
      {
        Faros_os.Netstack.actor_name = "trace";
        actor_ip = ip;
        actor_port = port;
        on_connect = next;
        on_data = (fun flow _ -> next flow);
      }
      :: acc)
    endpoints []

let keys t =
  List.filter_map (function Key k -> Some k | Answer _ | Inbound _ -> None) t.events

(* The tick-stamped inbound schedule, ready for [Netstack.schedule_inbound]. *)
let inbound_schedule t =
  List.filter_map
    (function Inbound (tick, ev) -> Some (tick, ev) | Answer _ | Key _ -> None)
    t.events

let packet_count t =
  List.fold_left
    (fun n -> function
      | Answer (_, chunks) -> n + List.length chunks
      | Key _ | Inbound _ -> n)
    0 t.events

let inbound_count t =
  List.length
    (List.filter (function Inbound _ -> true | Answer _ | Key _ -> false) t.events)

let total_rx_bytes t =
  let bytes chunks = List.fold_left (fun n d -> n + String.length d) 0 chunks in
  List.fold_left
    (fun acc -> function
      | Answer (_, chunks) -> acc + bytes chunks
      | Inbound (_, Faros_os.Netstack.Inb_data (_, d)) -> acc + String.length d
      | Inbound (_, (Faros_os.Netstack.Inb_connect _ | Faros_os.Netstack.Inb_fin _))
      | Key _ -> acc)
    0 t.events

(* -- serialization (trace files an analyst can keep alongside a sample) -- *)

let put_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let put_str buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_flow buf (f : Faros_os.Types.flow) =
  put_u32 buf f.src_ip;
  put_u32 buf f.src_port;
  put_u32 buf f.dst_ip;
  put_u32 buf f.dst_port

let serialize t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "FTR3";
  put_u32 buf t.final_tick;
  put_u32 buf t.syscall_count;
  put_u32 buf (List.length t.events);
  List.iter
    (fun ev ->
      match ev with
      | Answer (f, chunks) ->
        Buffer.add_char buf 'A';
        put_flow buf f;
        put_u32 buf (List.length chunks);
        List.iter (put_str buf) chunks
      | Key k ->
        Buffer.add_char buf 'K';
        put_u32 buf k
      | Inbound (tick, Faros_os.Netstack.Inb_connect f) ->
        Buffer.add_char buf 'C';
        put_u32 buf tick;
        put_flow buf f
      | Inbound (tick, Faros_os.Netstack.Inb_data (f, data)) ->
        Buffer.add_char buf 'D';
        put_u32 buf tick;
        put_flow buf f;
        put_str buf data
      | Inbound (tick, Faros_os.Netstack.Inb_fin f) ->
        Buffer.add_char buf 'F';
        put_u32 buf tick;
        put_flow buf f)
    t.events;
  Buffer.contents buf

exception Bad_trace of string

type reader = { src : string; mutable pos : int }

let get_u32 r =
  if r.pos + 4 > String.length r.src then raise (Bad_trace "truncated");
  let b i = Char.code r.src.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let get_str r =
  let n = get_u32 r in
  if r.pos + n > String.length r.src then raise (Bad_trace "truncated string");
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_char r =
  if r.pos >= String.length r.src then raise (Bad_trace "truncated tag");
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_flow r : Faros_os.Types.flow =
  let src_ip = get_u32 r in
  let src_port = get_u32 r in
  let dst_ip = get_u32 r in
  let dst_port = get_u32 r in
  { src_ip; src_port; dst_ip; dst_port }

let parse src =
  if String.length src < 4 then raise (Bad_trace "bad magic");
  (match String.sub src 0 4 with
  | "FTR3" -> ()
  | "FTR1" | "FTR2" -> raise (Bad_trace "FTR1/FTR2 trace: re-record it as FTR3")
  | _ -> raise (Bad_trace "bad magic"));
  let r = { src; pos = 4 } in
  let final_tick = get_u32 r in
  let syscall_count = get_u32 r in
  let n = get_u32 r in
  let events =
    List.init n (fun _ ->
        match get_char r with
        | 'A' ->
          let f = get_flow r in
          let chunks = get_u32 r in
          Answer (f, List.init chunks (fun _ -> get_str r))
        | 'K' -> Key (get_u32 r)
        | 'C' ->
          let tick = get_u32 r in
          Inbound (tick, Faros_os.Netstack.Inb_connect (get_flow r))
        | 'D' ->
          let tick = get_u32 r in
          let f = get_flow r in
          let data = get_str r in
          Inbound (tick, Faros_os.Netstack.Inb_data (f, data))
        | 'F' ->
          let tick = get_u32 r in
          Inbound (tick, Faros_os.Netstack.Inb_fin (get_flow r))
        | c -> raise (Bad_trace (Printf.sprintf "bad event tag %C" c)))
  in
  { events; final_tick; syscall_count }

(* A miniature TCP-like network stack.

   Remote endpoints are [actor]s: host-side scripts that stand in for the
   attacker machine (Metasploit listener, C2 server, web server).  An actor
   answers each guest connect and each send on the connection, and the
   record sink sees every answer.  Record and replay take this one path:
   the recorder registers the scenario's live actors, the replayer actors
   rebuilt from the recorded answers ([Trace.actors]) — the PANDA
   record/replay discipline, where network input is the non-deterministic
   event.  An address no actor serves refuses the connect.

   Traffic also flows the other way: host-side *clients* initiate
   connections to guest servers.  Those arrive as a tick-stamped inbound
   schedule pumped at scheduler slice boundaries, so delivery ticks are a
   pure function of the (deterministic) schedule: at record the schedule
   is a generator's, and the inbound sink sees every *delivered* event with
   its actual delivery tick; at replay it is the recorded one and, because
   slice boundaries replay identically, the same bytes land at the same
   ticks.  Events that find no listener (or a closed socket) are dropped
   without being recorded — at record and at replay alike.

   Ephemeral ports are allocated deterministically starting at 49162 (the
   port in the paper's Table II / Fig. 7 example). *)

type actor = {
  actor_name : string;
  actor_ip : Types.Ip.t;
  actor_port : int;
  on_connect : Types.flow -> string list;
  on_data : Types.flow -> string -> string list;
}

type socket = {
  sock_id : int;
  mutable flow : Types.flow option;  (* src = remote, dst = local, as seen by rx *)
  rx : Buffer.t;
  mutable rx_pos : int;
  mutable connected : bool;
  mutable actor : actor option;  (* the remote endpoint a connect reached *)
  mutable peer : int option;  (* loopback peer socket *)
  mutable listening : bool;
  mutable bound_port : int option;
  mutable fin : bool;  (* remote end closed; EOF once rx drains *)
  pending : int Queue.t;  (* connections awaiting accept *)
}

(* One step of a host-initiated connection's life, as seen by the guest. *)
type inbound_event =
  | Inb_connect of Types.flow
  | Inb_data of Types.flow * string
  | Inb_fin of Types.flow

type t = {
  local_ip : Types.Ip.t;
  sockets : (int, socket) Hashtbl.t;
  actors : (int * int, actor) Hashtbl.t;  (* (ip, port) -> actor *)
  listeners : (int, int) Hashtbl.t;  (* local port -> listening socket *)
  inbound_flows : (Types.flow, int) Hashtbl.t;  (* accepted-side sockets *)
  mutable inbound : (int * inbound_event) list;  (* tick-sorted schedule *)
  mutable next_sock : int;
  mutable next_port : int;
  mutable record_sink : (Types.flow -> string list -> unit) option;
  mutable inbound_sink : (int -> inbound_event -> unit) option;
  mutable sent : (Types.flow * string) list;  (* outbound traffic, for forensics *)
}

exception Bad_socket of int
exception Connection_refused of Types.flow

let first_ephemeral_port = 49162

let create ~local_ip =
  {
    local_ip;
    sockets = Hashtbl.create 16;
    actors = Hashtbl.create 8;
    listeners = Hashtbl.create 4;
    inbound_flows = Hashtbl.create 16;
    inbound = [];
    next_sock = 1;
    next_port = first_ephemeral_port;
    record_sink = None;
    inbound_sink = None;
    sent = [];
  }

let set_record_sink t f = t.record_sink <- Some f
let set_inbound_sink t f = t.inbound_sink <- Some f

let register_actor t actor =
  Hashtbl.replace t.actors (actor.actor_ip, actor.actor_port) actor

(* Merge tick-stamped events into the schedule.  The sort is stable, so
   events at the same tick keep their relative order — a connect always
   precedes its own data and fin. *)
let schedule_inbound t events =
  t.inbound <-
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (t.inbound @ events)

let pending_inbound t = List.length t.inbound

let socket t =
  let id = t.next_sock in
  t.next_sock <- id + 1;
  let s =
    {
      sock_id = id;
      flow = None;
      rx = Buffer.create 64;
      rx_pos = 0;
      connected = false;
      actor = None;
      peer = None;
      listening = false;
      bound_port = None;
      fin = false;
      pending = Queue.create ();
    }
  in
  Hashtbl.replace t.sockets id s;
  id

let find t id =
  match Hashtbl.find_opt t.sockets id with
  | Some s -> s
  | None -> raise (Bad_socket id)

(* Queue one actor call's answer on the socket and hand it to the record
   sink, empty or not: the trace keeps one answer per call. *)
let answer t s flow chunks =
  List.iter (Buffer.add_string s.rx) chunks;
  Option.iter (fun sink -> sink flow chunks) t.record_sink

let loopback_ip = Types.Ip.of_string "127.0.0.1"

(* Guest-to-guest loopback connection: entirely deterministic, so it
   reaches no actor and bypasses the record sink. *)
let connect_loopback t (s : socket) ~port ~local_port =
  match Hashtbl.find_opt t.listeners port with
  | None ->
    raise
      (Connection_refused
         {
           Types.src_ip = loopback_ip;
           src_port = port;
           dst_ip = loopback_ip;
           dst_port = local_port;
         })
  | Some listener_id ->
    let listener = find t listener_id in
    (* server-side half of the pair *)
    let server_id = socket t in
    let server = find t server_id in
    let client_flow =
      (* data the client receives: from the server's port *)
      {
        Types.src_ip = loopback_ip;
        src_port = port;
        dst_ip = loopback_ip;
        dst_port = local_port;
      }
    in
    let server_flow =
      {
        Types.src_ip = loopback_ip;
        src_port = local_port;
        dst_ip = loopback_ip;
        dst_port = port;
      }
    in
    s.flow <- Some client_flow;
    s.connected <- true;
    s.peer <- Some server_id;
    server.flow <- Some server_flow;
    server.connected <- true;
    server.peer <- Some s.sock_id;
    Queue.add server_id listener.pending;
    client_flow

(* Connect to a remote endpoint.  Returns the flow describing inbound data
   (src = remote endpoint, dst = our ephemeral endpoint).  The actor
   serving the endpoint answers, and the socket keeps it for its sends. *)
let connect t id ~ip ~port =
  let s = find t id in
  let local_port = t.next_port in
  t.next_port <- local_port + 1;
  if ip = loopback_ip || ip = t.local_ip then connect_loopback t s ~port ~local_port
  else begin
    let flow =
      { Types.src_ip = ip; src_port = port; dst_ip = t.local_ip; dst_port = local_port }
    in
    s.flow <- Some flow;
    s.connected <- true;
    s.actor <- Hashtbl.find_opt t.actors (ip, port);
    match s.actor with
    | Some actor ->
      answer t s flow (actor.on_connect flow);
      flow
    | None -> raise (Connection_refused flow)
  end

let send t id data =
  let s = find t id in
  match s.flow with
  | None -> raise (Bad_socket id)
  | Some flow ->
    t.sent <- (flow, data) :: t.sent;
    (match (s.peer, s.actor) with
    | Some peer_id, _ -> (
      (* loopback: deliver straight into the peer, no recording.  A peer
         that already closed swallows the bytes, like a TCP RST would. *)
      match Hashtbl.find_opt t.sockets peer_id with
      | Some peer -> Buffer.add_string peer.rx data
      | None -> ())
    | None, Some actor -> answer t s flow (actor.on_data flow data)
    | None, None -> ());
    String.length data

(* Byte-stream recv: returns at most [len] bytes, "" when nothing pending. *)
let recv t id ~len =
  let s = find t id in
  let avail = Buffer.length s.rx - s.rx_pos in
  let n = min len avail in
  if n <= 0 then ""
  else begin
    let out = Buffer.sub s.rx s.rx_pos n in
    s.rx_pos <- s.rx_pos + n;
    out
  end

(* EOF: the remote side sent fin and the guest drained every byte. *)
let eof t id =
  let s = find t id in
  s.fin && Buffer.length s.rx - s.rx_pos = 0

(* Readiness bitmask for the [poll] syscall.  Listener: bit 0 = a
   connection is waiting to be accepted.  Connected socket: bit 0 = bytes
   available to recv, bit 1 = stream at EOF. *)
let readiness t id =
  let s = find t id in
  if s.listening then (if Queue.is_empty s.pending then 0 else 1)
  else
    let avail = Buffer.length s.rx - s.rx_pos > 0 in
    (if avail then 1 else 0) lor (if (not avail) && s.fin then 2 else 0)

(* Server-side API: bind a local port, listen, accept pending
   connections. *)
let bind t id ~port =
  let s = find t id in
  if Hashtbl.mem t.listeners port then raise (Bad_socket id);
  s.bound_port <- Some port;
  Hashtbl.replace t.listeners port id

let listen t id =
  let s = find t id in
  match s.bound_port with None -> raise (Bad_socket id) | Some _ -> s.listening <- true

(* Returns the accepted socket id, or None when nothing is pending. *)
let accept t id =
  let s = find t id in
  if not s.listening then raise (Bad_socket id)
  else if Queue.is_empty s.pending then None
  else Some (Queue.pop s.pending)

let flow_of t id = (find t id).flow

(* -- inbound pump --------------------------------------------------------- *)

(* Deliver every scheduled event that is due at [tick].  Called at slice
   boundaries from the kernel run loop, so delivery ticks are boundary
   ticks — identical in record and replay.  Only *delivered* events reach
   the inbound sink (and hence the trace); refused connects and data for
   closed sockets vanish in both modes alike. *)
let pump t ~tick =
  let deliver_event ev =
    match ev with
    | Inb_connect flow -> (
      match Hashtbl.find_opt t.listeners flow.Types.dst_port with
      | None -> false
      | Some listener_id -> (
        match Hashtbl.find_opt t.sockets listener_id with
        | Some listener when listener.listening ->
          let conn_id = socket t in
          let conn = find t conn_id in
          conn.flow <- Some flow;
          conn.connected <- true;
          Hashtbl.replace t.inbound_flows flow conn_id;
          Queue.add conn_id listener.pending;
          true
        | Some _ | None -> false))
    | Inb_data (flow, data) -> (
      match Hashtbl.find_opt t.inbound_flows flow with
      | Some sid -> (
        match Hashtbl.find_opt t.sockets sid with
        | Some s when not s.fin ->
          Buffer.add_string s.rx data;
          true
        | Some _ | None -> false)
      | None -> false)
    | Inb_fin flow -> (
      match Hashtbl.find_opt t.inbound_flows flow with
      | Some sid -> (
        match Hashtbl.find_opt t.sockets sid with
        | Some s when not s.fin ->
          s.fin <- true;
          true
        | Some _ | None -> false)
      | None -> false)
  in
  let rec go () =
    match t.inbound with
    | (at, ev) :: rest when at <= tick ->
      t.inbound <- rest;
      if deliver_event ev then (
        match t.inbound_sink with Some sink -> sink tick ev | None -> ());
      go ()
    | _ -> ()
  in
  go ()

(* -- close ---------------------------------------------------------------- *)

(* Drop the accepted-flow index entry that points at [s]. *)
let forget_flow t (s : socket) =
  match s.flow with
  | Some f -> (
    match Hashtbl.find_opt t.inbound_flows f with
    | Some sid when sid = s.sock_id -> Hashtbl.remove t.inbound_flows f
    | Some _ | None -> ())
  | None -> ()

(* Tell a loopback peer its other end is gone: reads drain to EOF, writes
   are swallowed. *)
let detach_peer t (s : socket) =
  match s.peer with
  | Some pid -> (
    match Hashtbl.find_opt t.sockets pid with
    | Some peer ->
      peer.peer <- None;
      peer.fin <- true
    | None -> ())
  | None -> ()

(* Closing a listener releases its port (so the port can be rebound) and
   drains the un-accepted backlog; closing a connection detaches its peer
   and forgets its flow index entry. *)
let close t id =
  match Hashtbl.find_opt t.sockets id with
  | None -> ()
  | Some s ->
    (match s.bound_port with
    | Some port when Hashtbl.find_opt t.listeners port = Some id ->
      Hashtbl.remove t.listeners port;
      Queue.iter
        (fun cid ->
          match Hashtbl.find_opt t.sockets cid with
          | Some c ->
            forget_flow t c;
            detach_peer t c;
            Hashtbl.remove t.sockets cid
          | None -> ())
        s.pending;
      Queue.clear s.pending
    | Some _ | None -> ());
    forget_flow t s;
    detach_peer t s;
    Hashtbl.remove t.sockets id

let sent_traffic t = List.rev t.sent

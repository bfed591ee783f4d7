(* Deterministic traffic generator.

   A [schedule] describes a family of host-side clients connecting to a
   guest server: how many, when they arrive, and what each one sends.  It
   expands ([events]) into the tick-stamped inbound-event list the
   netstack pump consumes — pure integer arithmetic, no randomness, so
   the same schedule always produces the same traffic and a recorded run
   replays it byte-for-byte.

   Client [i] always connects from [default_base_src_port + i]: the
   source port is the client's identity, which is what lets a whodunit
   slice name the exact guilty connection among hundreds. *)

open Faros_os

(* When clients arrive, in ticks. *)
type arrival =
  | Uniform of int  (* a new client every [gap] ticks *)
  | Burst of { size : int; gap : int }  (* waves of [size], [gap] apart *)
  | Ramp of { start_gap : int; end_gap : int }
      (* inter-arrival gap interpolated linearly over the client range:
         load that builds up (or drains) over the run *)

type schedule = {
  clients : int;
  arrival : arrival;
  dst_ip : Types.Ip.t;
  dst_port : int;
  data_gap : int;  (* ticks between a client's chunks (0 = same tick) *)
  payload : int -> string list;  (* chunks client [i] sends *)
}

let default_src_ip = Types.Ip.of_string "169.254.80.14"
let default_base_src_port = 40000

(* The first connect: late enough for the server to bind and listen. *)
let first_tick = 500

let make ?(arrival = Uniform 40) ?(data_gap = 0) ~dst_ip ~dst_port ~payload
    clients =
  { clients; arrival; dst_ip; dst_port; data_gap; payload }

(* The 5-tuple client [i] connects from — its identity in the graph. *)
let flow_of_client s i : Types.flow =
  {
    src_ip = default_src_ip;
    src_port = default_base_src_port + i;
    dst_ip = s.dst_ip;
    dst_port = s.dst_port;
  }

let connect_tick s i =
  match s.arrival with
  | Uniform gap -> first_tick + (i * gap)
  | Burst { size; gap } ->
    let size = max 1 size in
    first_tick + (i / size * gap)
  | Ramp { start_gap; end_gap } ->
    (* sum of the first i interpolated gaps *)
    let span = max 1 (s.clients - 1) in
    let t = ref first_tick in
    for j = 0 to i - 1 do
      t := !t + start_gap + ((end_gap - start_gap) * j / span)
    done;
    !t

(* Expand into the tick-stamped inbound schedule.  The sort is stable and
   clients are generated in order, so within a tick a connect always
   precedes its own data and fin. *)
let events s =
  let per_client i =
    let flow = flow_of_client s i in
    let t0 = connect_tick s i in
    let chunks = s.payload i in
    let n = List.length chunks in
    ((t0, Netstack.Inb_connect flow)
    :: List.mapi
         (fun k data -> (t0 + (s.data_gap * (k + 1)), Netstack.Inb_data (flow, data)))
         chunks)
    @ [ (t0 + (s.data_gap * (n + 1)), Netstack.Inb_fin flow) ]
  in
  List.stable_sort
    (fun (a, _) (b, _) -> compare a b)
    (List.concat (List.init s.clients per_client))

(* Last scheduled tick: a lower bound on how long the run must live. *)
let horizon s =
  let last = ref 0 in
  List.iter (fun (t, _) -> if t > !last then last := t) (events s);
  !last

let total_bytes s =
  let n = ref 0 in
  for i = 0 to s.clients - 1 do
    List.iter (fun c -> n := !n + String.length c) (s.payload i)
  done;
  !n

(** Benign software from Table IV: remote-admin tools whose behaviours
    overlap heavily with the RATs (the point of the false-positive study)
    plus a purely local tool. *)

val server_ip : string

val networked :
  name:string -> port:int -> behaviors:Behavior.t list -> seed:int -> Scenario.t

val snipping_tool : seed:int -> Scenario.t
(** Screenshot to file, no network at all. *)

val programs : (string * int * Behavior.t list) list

val samples : unit -> (string * string * Behavior.t list * Scenario.t) list
(** 14 builds. *)

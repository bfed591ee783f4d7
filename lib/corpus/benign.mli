(** Benign software from Table IV: remote-admin tools whose behaviours
    overlap heavily with the RATs (the point of the false-positive study)
    plus a purely local tool. *)

val programs : (string * int * Behavior.t list) list

val samples : unit -> (string * string * Behavior.t list * Scenario.t) list
(** 14 builds. *)

(** The provenance-list life cycle of Fig. 4: "data comes in from network
    and goes to Process 1.  Next, it goes to Process 2, and then it is
    written into File 1, which is read by Process 3."  Three cooperating
    guest programs reproduce exactly that chain. *)

val payload : string
val file1 : string

type experiment = {
  exp_scenario : Scenario.t;
  exp_sink_vaddr : int;  (** process 3's destination buffer *)
  exp_len : int;
}

val experiment : unit -> experiment

(** Table V performance workloads.

    Heavier, longer-running versions of six corpus programs (the paper's
    Skype, Team Viewer, Bozok, Spygate, Pandora and Remote Utility), built
    by looping their behaviour mix.  Workload sizes differ deliberately:
    the paper's observation is that FAROS overhead grows with behavioural
    complexity. *)

val workloads : unit -> (string * Scenario.t) list
(** The six Table V rows, in the paper's order. *)

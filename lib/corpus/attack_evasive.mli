(** The evasion the paper's discussion section concedes: laundering the
    payload through a control-dependent bit-by-bit copy strips its
    provenance, so the direct-flow policy misses the injection; enabling
    control-dependency propagation (the configurable policy response the
    paper points to) catches it again. *)

val attacker_ip : string
val attacker_port : int

val client_image : target_pid:int -> Faros_os.Pe.t
val scenario : unit -> Scenario.t

(** Benign victim processes: the programs injection targets hide inside.
    They busy-loop long enough for an injector to reach them and halt on
    their own if nothing hijacks them. *)

val notepad : unit -> Faros_os.Pe.t
val firefox : unit -> Faros_os.Pe.t
val explorer : unit -> Faros_os.Pe.t

val svchost : unit -> Faros_os.Pe.t
(** Hollowing target: created suspended, so it normally never runs. *)

val calc : unit -> Faros_os.Pe.t
(** Spawn-target for the Run behaviour. *)

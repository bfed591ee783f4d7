(** Tick-sampled analysis telemetry.

    A {!Faros_obs.Series} whose rows capture, at one kernel tick, the
    replay position, engine progress, shadow/tag-store sizes and detector
    verdicts — the quantities behind the paper's memory-overhead and
    detection discussion, observable over time instead of only at the end
    of the replay.

    Pass one to [Faros_corpus.Scenario.analyze ~telemetry] to record one
    row every 64 replay ticks plus a final row at the end of the replay;
    read it back with the {!Faros_obs.Series} functions. *)

type t = Faros_obs.Series.t

val create : unit -> t
(** An empty series over the 13 telemetry columns, retaining the last
    4096 rows. *)

val sample : t -> Faros_plugin.t -> tick:int -> syscalls:int -> unit
(** Record one row of the analysis' current state. *)

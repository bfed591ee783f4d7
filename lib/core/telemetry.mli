(** Tick-sampled analysis telemetry.

    A {!Faros_obs.Series} whose rows capture, at one kernel tick, the
    replay position, engine progress, shadow/tag-store sizes and detector
    verdicts — the quantities behind the paper's memory-overhead and
    detection discussion, observable over time instead of only at the end
    of the replay.

    Feed {!sample} to {!Faros_replay.Replayer.replay}'s [?sample] hook (as
    {!Analysis.analyze} does) to record one row every 64 ticks plus a
    final row at the end of the replay. *)

val columns : string list
(** [tick; syscalls; instrs; tainted_bytes; tainted_regs; shadow_pages;
    interned_provs; netflow_tags; process_tags; file_tags; export_tags;
    flags; suppressed]. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring capacity defaults to 4096 rows. *)

val series : t -> Faros_obs.Series.t

val sample : t -> Faros_plugin.t -> tick:int -> syscalls:int -> unit
(** Record one row of the analysis' current state. *)

val to_csv : t -> string
val to_json : t -> Faros_obs.Json.t

(** What one FAROS analysis produces.  The analyst workflow of Section
    V-C (record, replay under the FAROS plugin, report) is driven by
    [Faros_corpus.Scenario.analyze] and [analyze_trace]. *)

type outcome = {
  faros : Faros_plugin.t;
  report : Report.t;
  trace : Faros_replay.Trace.t;
      (** the recorded trace; [trace.final_tick] is the record's length *)
  replay : Faros_replay.Replayer.result;
}

exception Deadline_exceeded
(** Raised out of [Scenario.analyze] when its [deadline] budget
    elapses. *)

val flagged : outcome -> bool

(* What one FAROS analysis produces: the analyst workflow of Section V-C
   (record, replay under the FAROS plugin, report) is driven by
   [Faros_corpus.Scenario.analyze]. *)

type outcome = {
  faros : Faros_plugin.t;
  report : Report.t;
  trace : Faros_replay.Trace.t;
  replay : Faros_replay.Replayer.result;
}

exception Deadline_exceeded

let flagged outcome = Report.flagged outcome.report

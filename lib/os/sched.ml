(* Round-robin scheduler over the kernel's run queue.

   Each entry is a pid; terminated and suspended processes are dropped when
   encountered (resume re-enqueues).  Determinism matters: the schedule is a
   pure function of kernel state, which is what makes whole-system replay
   exact without recording scheduling decisions. *)

(* Pop the next runnable process, rotating it to the back of the queue. *)
let rec next (k : Kstate.t) : Process.t option =
  match k.run_queue with
  | [] -> None
  | pid :: rest -> (
    match Kstate.proc k pid with
    | Some p when Process.is_ready p ->
      k.run_queue <- rest @ [ pid ];
      Some p
    | Some _ | None ->
      k.run_queue <- rest;
      next k)

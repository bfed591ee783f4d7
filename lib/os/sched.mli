(** Round-robin scheduler over the kernel's run queue.

    Determinism matters: the schedule is a pure function of kernel state,
    which is what makes whole-system replay exact without recording
    scheduling decisions. *)

val next : Kstate.t -> Process.t option
(** Pop the next runnable process, rotating it to the back; drops
    terminated/suspended entries encountered on the way. *)

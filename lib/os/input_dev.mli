(** Scripted user-input devices.

    Keystrokes are external, non-deterministic input (the workload an
    analyst types while recording) and therefore go through the same
    record/replay discipline as network packets.  Audio and screen capture
    return synthetic data generated deterministically from an internal
    counter, so they need no recording. *)

type t

val create : unit -> t

val script_string : t -> string -> unit
(** Queue live-mode keystrokes. *)

val set_record_sink : t -> (int -> unit) -> unit
val set_replay_keys : t -> int list -> unit

val read_key : t -> int
(** Next keystroke, or 0 when the script is exhausted. *)

val read_audio : t -> int -> Bytes.t
(** Deterministic synthetic PCM-ish bytes. *)

val read_frame : t -> int -> Bytes.t
(** Deterministic synthetic frame bytes. *)

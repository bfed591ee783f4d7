(* Scripted user-input devices.

   Keystrokes are external, non-deterministic input (the user workload an
   analyst types while recording) and therefore go through the same
   record/replay discipline as network packets.  Audio and screen capture
   return synthetic data generated deterministically from an internal
   counter, so they need no recording. *)

type t = {
  mutable pending_keys : int list;  (* the script, live or replayed *)
  mutable record_sink : (int -> unit) option;
  mutable audio_counter : int;
  mutable frame_counter : int;
}

let create () =
  {
    pending_keys = [];
    record_sink = None;
    audio_counter = 0;
    frame_counter = 0;
  }

let script_keys t keys = t.pending_keys <- t.pending_keys @ keys

let script_string t s =
  script_keys t (List.init (String.length s) (fun i -> Char.code s.[i]))

let set_record_sink t f = t.record_sink <- Some f

(* Next keystroke, or 0 when the script is exhausted.  Recording and
   replay read the same script: replay queues the trace's keys and sets
   no record sink. *)
let read_key t =
  match t.pending_keys with
  | [] -> 0
  | k :: rest ->
    t.pending_keys <- rest;
    (match t.record_sink with Some sink -> sink k | None -> ());
    k

(* Deterministic synthetic PCM-ish bytes. *)
let read_audio t len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    t.audio_counter <- (t.audio_counter + 37) land 0xFF;
    Bytes.set b i (Char.chr t.audio_counter)
  done;
  b

(* Deterministic synthetic frame bytes. *)
let read_frame t len =
  t.frame_counter <- t.frame_counter + 1;
  Bytes.init len (fun i -> Char.chr ((t.frame_counter + (i * 13)) land 0xFF))

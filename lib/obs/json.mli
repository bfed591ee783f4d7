(** Minimal JSON support for the exporters and the segment store — the
    repo avoids external JSON dependencies.

    One renderer serves every writer: each document and row is a {!t}
    value rendered by {!to_buffer}, so escaping and number formatting
    live in this module alone.  One reader serves both the
    well-formedness checks and the store: [parse] takes the strict RFC
    8259 grammar and [well_formed] is [parse] with the value dropped.  Not
    a general-purpose JSON library — no streaming, surrogate pairs
    unhandled — but total: malformed input returns
    [Error "<msg> at offset <n>"], never raises. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** no fraction or exponent, and fits a native int *)
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (surrounding whitespace allowed).
    Rejects leading zeros, a ['.'] or exponent marker without digits,
    raw bytes below 0x20 inside strings, [\u] escapes without exactly
    four hex digits, and more than 512 nested arrays and objects
    (["nesting deeper than 512 at offset <n>"], [n] the offset of the
    first bracket too many).  `faros check-json` and the segment store
    share the limit. *)

val well_formed : string -> (unit, string) result
(** [parse] with the value dropped. *)

val to_buffer : Buffer.t -> t -> unit
(** Append the compact rendering: no whitespace, members in list order.
    Strings escape ['"'], ['\\'] and ['\n'] short and every other byte
    below 0x20 as [\u00XX]; all other bytes pass through, so
    [parse (to_string v) = Ok v] for every value without a [Float].  A
    [Float] renders with six decimals ([%.6f], the precision of every
    [wall_s] seconds field) and a non-finite one as [null]. *)

val to_string : t -> string
(** {!to_buffer} into a fresh buffer. *)

val well_formed_lines : string -> (int, int * string) result
(** Validate a JSONL document: every non-empty line must be one
    well-formed JSON value.  [Ok n] is the number of validated lines;
    [Error (lineno, msg)] names the first bad line (1-based). *)

val mem : t -> string -> t option
(** Object member lookup; [None] on non-objects. *)

val to_int : t -> int option
val to_str : t -> string option

val to_strings : t -> string list option
(** [Some] only for a list whose elements are all strings. *)

val int_mem : t -> string -> int option
val str_mem : t -> string -> string option

(** Minimal JSON support for the exporters and the segment store — the
    repo avoids external JSON dependencies.

    One reader serves both the well-formedness checks and the store:
    [parse] takes the strict RFC 8259 grammar and [well_formed] is [parse]
    with the value dropped.  Not a general-purpose JSON library — no
    streaming, surrogate pairs unhandled — but total: malformed input
    returns [Error "<msg> at offset <n>"], never raises. *)

val escape : string -> string
(** Escape a string for inclusion inside JSON double quotes. *)

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
    raw bytes below 0x20 inside strings, and [\u] escapes without
    exactly four hex digits. *)

val well_formed : string -> (unit, string) result
(** [parse] with the value dropped. *)

val to_string : t -> string
(** Compact rendering (no whitespace, members in list order); a
    non-finite [Float] renders as [null]. *)

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

(** The tag hash maps of Fig. 5.

    Each map interns the payload of one tag type — netflow 4-tuples, process
    CR3 values, (file name, version) pairs, exported function names — and
    hands out the 16-bit index a prov_tag carries.  Entries exist only for
    objects that have been involved with tainted bytes, which is what bounds
    the maps. *)

type file_id = { file_name : string; file_version : int }

type t

exception Overflow of string
(** Raised when a store would mint index 0x10000 — one past what the
    16-bit prov_tag wire format (Fig. 6) can carry.  Raised at intern
    time with the overflowing store's name, rather than surfacing as a
    [Tag.Bad_prov_tag] much later at encode time. *)

val create : unit -> t

val netflow : t -> Faros_os.Types.flow -> Tag.t
(** Intern a flow; returns its [Netflow] tag.  Idempotent per flow. *)

val process : t -> int -> Tag.t
(** Intern a CR3 value; returns its [Process] tag. *)

val file : t -> name:string -> version:int -> Tag.t
(** Intern a (file name, access-count version) pair; returns its [File]
    tag.  Distinct versions of the same file intern separately. *)

val export : t -> name:string -> Tag.t
(** Intern an exported function name; returns its [Export_table] tag.
    This is the per-function payload the paper lists as future work. *)

val process_index : t -> int -> int option
(** The index {!process} has given this CR3 value, if any; mints
    nothing. *)

val netflow_of : t -> int -> Faros_os.Types.flow option
val cr3_of : t -> int -> int option
val file_of : t -> int -> file_id option
val export_of : t -> int -> string option

val netflow_count : t -> int
val process_count : t -> int
val file_count : t -> int
val export_count : t -> int

(** Tick-sampled time series: a fixed-capacity ring buffer of integer
    rows over a shared column set.

    When the buffer is full the oldest rows are overwritten, keeping a
    bounded recent window plus the total sample count — a replay of any
    length samples in O(capacity) memory. *)

type t

val create : capacity:int -> columns:string list -> t
(** Raises [Invalid_argument] on a non-positive capacity or empty column
    list. *)

val columns : t -> string list

val sample : t -> int array -> unit
(** Append one row (copied).  Raises [Invalid_argument] if the row arity
    does not match the column count. *)

val total : t -> int
(** Samples ever taken, including overwritten ones. *)

val length : t -> int
(** Rows currently retained: [min total capacity]. *)

val get : t -> int -> int array
(** The [i]-th oldest retained row (a copy). *)

val last : t -> int array option

val column : t -> string -> int list
(** One column's retained values, oldest first.  Raises
    [Invalid_argument] on an unknown column name. *)

val to_csv : t -> string
(** Header line plus one comma-separated line per retained row. *)

val to_json : t -> Json.t
(** [{"columns":[...],"total_samples":n,"rows":[[...],...]}]. *)

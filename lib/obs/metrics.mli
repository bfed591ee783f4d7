(** The metrics registry: named counters, gauges and log2-bucketed
    histograms.

    The hot path — {!incr}, {!add}, {!set}, {!observe} — is a mutable-int
    write into an already-registered metric: O(1), no allocation, no name
    lookup.  Registration ({!counter} / {!gauge} / {!histogram}) interns
    by name and is idempotent; asking for an existing name with a
    different kind raises [Invalid_argument].

    Rendering walks the registry in sorted name order, so output is
    deterministic regardless of registration order. *)

type counter
type gauge
type histogram

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {2 Hot path} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit

val observe : histogram -> int -> unit
(** Record one observation.  Bucket 0 counts values [<= 0]; bucket [k]
    counts values in [[2^(k-1), 2^k)]. *)

(** {2 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val histogram_bucket_list : histogram -> (int * int * int) list
(** Nonzero buckets as [(lo, hi, count)], [hi] exclusive, ascending; the
    [<= 0] bucket reports [lo = min_int]. *)

val fold : t -> ('a -> string -> metric -> 'a) -> 'a -> 'a
(** Fold over all metrics in sorted name order. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into] by name: counters and
    histogram buckets add; gauges add too (a merged gauge reads as a
    total across the merged registries).  Merging is commutative, so a
    set of per-worker registries merges to the same result in any order.
    Raises [Invalid_argument] if a name has different kinds in the two
    registries. *)

val pp_table : Format.formatter -> t -> unit
(** The `faros stats` table: one sorted line per metric. *)

val to_json : t -> Json.t
(** [{"metrics":[...]}], sorted by name as {!pp_table} prints it. *)

(** The streaming forensic store: graph segment rows in, cross-campaign
    queries out.

    Ingestion is row-by-row, order-insensitive and idempotent: rows are
    deduplicated on their (run, seq) key and merged under commutative,
    associative operators, so any shuffle (or re-ingestion) of segment
    files produces the same store and byte-identical query output.

    Per-run reconstruction rebuilds the producing run's resident graph
    exactly — node ordinals are dense first-encounter ids and edge rows
    replay in creation-ordinal order — so whodunit slices over the store
    match slices over the live graph byte for byte.  Cross-run queries
    ({!origins}, {!flows}, {!merged_graph}) join runs on the stable
    identity strings carried by node rows. *)

type t

val create : unit -> t

val ingest_lines : t -> string list -> (int, string) result
(** Ingest JSONL rows (foreign row types are skipped — a mixed telemetry
    stream is fine).  Returns the number of new (non-duplicate) graph
    rows; on a malformed line, rows before it remain ingested. *)

val ingest_file : t -> string -> (int, string) result

val load : dir:string -> (t, string) result
(** A store over every [*.jsonl] file in [dir] (sorted name order —
    though any order would produce the same store). *)

val runs : t -> string list
(** Ingested run ids, sorted. *)

val run_graph : t -> string -> (Faros_graph.Graph.t, string) result
(** Reconstruct (and cache) one run's resident graph. *)

type totals = {
  t_runs : int;
  t_complete : int;  (** runs whose "final" marker arrived *)
  t_rows : int;
  t_dups : int;
  t_nodes : int;
  t_edges : int;
  t_flag_runs : int;  (** runs containing at least one flag site *)
}

val totals : t -> totals

type origin = {
  o_ident : string;
  o_label : string;
  o_runs : string list;  (** sorted run ids whose slices reached it *)
}

val origins : t -> (origin list, string) result
(** Every slice origin across every run, grouped by stable identity and
    ranked by the number of runs reached (ties by identity). *)

type flow_hit = {
  fh_run : string;
  fh_ident : string;
  fh_label : string;
  fh_delivered : int;  (** bytes the flow delivered into processes *)
  fh_sent : int;  (** bytes processes sent back out *)
}

val flows : t -> spec:string -> (flow_hit list, string) result
(** Flow nodes whose identity contains [spec] (["SRC:sport->DST:dport"],
    or any fragment of it), per run in sorted run order. *)

val merged_graph : t -> (Faros_graph.Graph.t, string) result
(** The cross-run union keyed by stable identity, as a plain graph the
    DOT/JSON exporters accept.  Deterministic in the ingested row set;
    process display pids come from the first run carrying the identity
    (clashing pids from later runs are remapped, identities are not). *)

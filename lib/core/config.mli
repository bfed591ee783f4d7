(** FAROS analysis configuration.

    The defaults encode the paper's flagging policy: an executed load whose
    code bytes carry at least one process tag and an input-source tag,
    reading export-table-tagged memory, is an in-memory injection.

    [min_process_tags] is 1 (not 2) because the reverse_tcp_dns experiment
    (Fig. 8) injects into the same process that downloaded the payload, so
    its provenance carries a single process tag — and the paper still flags
    it.  Cross-process attacks naturally accumulate two or more.

    [require_netflow] selects the strict network-borne policy; the default
    additionally accepts file-borne payloads, which is what flags the
    process-hollowing sample of Fig. 10 (payload shipped inside the
    dropper's own image). *)

type t = {
  policy : Faros_dift.Policy.t;  (** propagation policy *)
  whitelist : string list;  (** process names whose flags are suppressed *)
  min_process_tags : int;
  require_netflow : bool;
}

val default : t

val strict_netflow : t
(** [default] with [require_netflow = true]. *)

val with_policy : Faros_dift.Policy.t -> t -> t
val with_whitelist : string list -> t -> t

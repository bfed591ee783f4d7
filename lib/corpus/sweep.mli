(** The generated campaign corpus: a parameter sweep over the Table IV
    behaviour matrix — evasion kind x scrub timing x flow shape x
    payload size x victim x seed — minting 1,000+ samples with
    deterministic ids and contents.  Images and payloads are built
    through {!Snapshot}, so construction cost is O(distinct artifacts),
    not O(samples).  Samples return as plain tuples (like
    {!Rats.samples}); {!Registry.sweep1k} maps them into categories. *)

type kind =
  | Refl  (** reflective injection into a victim — expected flagged *)
  | Self_inject  (** reverse_tcp_dns shape — expected flagged *)
  | Iat  (** IAT-based dropper — expected flagged *)
  | Launder
      (** taint-laundering bit-copy — expected clean under the default
          direct-flow policy (the paper's conceded evasion) *)
  | Drop  (** benign download, never executed — expected clean *)

val samples : unit -> (string * kind * Scenario.t) list
(** [(id, kind, scenario)] tuples, deterministic in content and order:
    11 seeds per sweep point, 1,093 samples. *)

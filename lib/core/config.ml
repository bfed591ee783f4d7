(* FAROS analysis configuration.

   The defaults encode the paper's flagging policy: an executed load whose
   code bytes carry at least one process tag and an input-source tag,
   reading export-table-tagged memory, is an in-memory injection.
   [require_netflow] selects the strict network-borne policy; leaving it
   off additionally accepts file-borne payloads (the process-hollowing
   sample of Fig. 10, whose payload ships inside the dropper's image). *)

type t = {
  policy : Faros_dift.Policy.t;
  whitelist : string list;  (* process names whose flags are suppressed *)
  min_process_tags : int;
  require_netflow : bool;
}

(* min_process_tags is 1, not 2: the reverse_tcp_dns experiment (Fig. 8)
   injects into the *same* process that downloaded the payload, so its
   provenance carries a single process tag — and the paper still flags it.
   Cross-process attacks naturally accumulate two or more. *)
let default =
  {
    policy = Faros_dift.Policy.faros_default;
    whitelist = [];
    min_process_tags = 1;
    require_netflow = false;
  }

let strict_netflow = { default with require_netflow = true }

let with_policy policy t = { t with policy }
let with_whitelist whitelist t = { t with whitelist }

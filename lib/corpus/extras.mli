(** Extra benign workloads exercising OS facilities the Table IV corpus
    does not: legitimate DLL loading through the OS loader (visible to
    dlllist, untouched by FAROS) and guest-to-guest loopback IPC. *)

val dll_host : unit -> Scenario.t
(** LdrLoadLibrary + LdrGetProcAddress + call: the legitimate linking path
    the reflective technique bypasses. *)

val ipc_pair : unit -> Scenario.t
(** Loopback bind/listen/accept between two guest processes. *)

val export_walker : unit -> Scenario.t
(** A benign export-directory walker — the precision boundary of the
    file-borne detection rule: flagged by the default policy, clean under
    {!Core.Config.strict_netflow}. *)

val multi_target : unit -> Scenario.t
(** One downloaded payload injected into two victims: whole-system
    tracking reports both infections in a single replay. *)

val samples : unit -> (string * Scenario.t) list
(** The benign extras (dll_host, ipc_pair) registered with the CLI. *)

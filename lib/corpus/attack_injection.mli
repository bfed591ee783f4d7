(** Code/process injection: DarkComet-like and Njrat-like RAT droppers
    (Section VI's "real-world code-injecting malware").

    Unlike the reflective client these call the injection APIs through the
    IAT — CreateProcessA / VirtualAllocEx / WriteProcessMemory are
    perfectly visible to a library-level monitor, and still nothing
    event-based flags the in-memory payload. *)

val injector_image :
  name:string -> c2_port:int -> target_pid:int -> Faros_os.Pe.t
(** The IAT-based dropper: downloads a framed payload through the hooked
    recv API and injects it with VirtualAllocEx / WriteProcessMemory /
    SetThreadContext.  Cached in {!Snapshot}. *)

val c2_actor : port:int -> payload:string -> Faros_os.Netstack.actor

val darkcomet : ?scrub:bool -> unit -> Scenario.t
(** C2 on DarkComet's default port 1604. *)

val njrat : unit -> Scenario.t
(** C2 on Njrat's default port 1177. *)

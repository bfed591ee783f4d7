(** The Table IV corpus: non-injecting RAT families.

    Every sample composes behaviour fragments over a C2 connection;
    variants of a family differ by seed and port, so each of the 90 builds
    is a distinct program — but none moves code across a process boundary,
    which is what keeps FAROS quiet on all of them. *)

val c2_ip : string

val image :
  name:string -> port:int -> behaviors:Behavior.t list -> seed:int -> Faros_os.Pe.t

val c2_actor : port:int -> feed:string -> Faros_os.Netstack.actor

val support_files : (string * string) list
(** Data files the File_transfer / Upload behaviours read. *)

val scenario :
  name:string -> port:int -> behaviors:Behavior.t list -> seed:int -> Scenario.t

val families : (string * int * Behavior.t list) list
(** The 17 malware rows of Table IV: family, base port, behaviours. *)

val samples : unit -> (string * string * Behavior.t list * Scenario.t) list
(** 90 builds spread across the families. *)

(** Process hollowing / replacement (Fig. 10, the Lab 3-3 keylogger).

    process_hollowing.exe carries its payload inside its own image, creates
    svchost.exe suspended, unmaps the legitimate image from the child,
    writes the payload into the hollow, points the child's thread context
    at it and resumes.  The payload never touches the network — its
    provenance is file-borne. *)

val scenario : ?keys:int -> unit -> Scenario.t

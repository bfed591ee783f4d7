(** Injected payloads.

    These are the bytes that travel over the wire (or sit inside a
    dropper's image) and end up executing inside a victim process.  Each
    begins with the reflective ritual the paper describes: resolving
    LoadLibraryA, GetProcAddress and VirtualAlloc by walking the kernel
    export directory — the walk whose final pointer load FAROS flags.

    Payloads are assembled for a fixed [origin]: the first allocation a
    victim process grants is deterministic in this guest (heap base
    0x10000000), so the attacker pre-links the payload for that address —
    standing in for the position-independent shellcode real kits
    generate. *)

val popup : ?origin:int -> ?scrub:bool -> text:string -> unit -> string
(** Proves execution inside the victim with a pop-up (the paper's
    reflective-DLL test payload).  With [scrub], the payload unmaps its own
    region after the pop-up — the transient cleanup that defeats snapshot
    forensics. *)

val keylogger : ?origin:int -> ?keys:int -> ?log:string -> unit -> string
(** The hollowing payload (Lab 3-3's keylogger): resolves its imports
    reflectively, logs [keys] keystrokes and writes them to [log]. *)

val applet_native_stub : origin:int -> unit -> string

val rdll_image_base : int

val rdll_blob : text:string -> unit -> string
(** The full reflective-DLL technique: a bootstrap plus a sectioned DLL
    image travel over the wire; the bootstrap maps the image section by
    section inside the victim with its own memcpy and calls the entry
    point, which resolves imports reflectively and pops a message box. *)

(** JIT workloads: the Table III false-positive study.

    JITs are legitimately injection-shaped: code arrives over the network
    and ends up executing after being linked against system libraries.
    Two flavours, mirroring why the paper saw 2/10 applets flag and 0/10
    AJAX sites:

    - {e laundering JIT}: the generator translates downloaded bytes through
      a lookup table (an address dependency), so under the direct-flow
      policy the emitted code is untainted — no flag.  All ten AJAX sites
      and eight of the applets compile this way.
    - {e native-stub applet}: two applets ship a native helper routine
      whose bytes are copied verbatim into the JVM's code cache, execute
      with network provenance, and resolve symbols by walking the export
      directory — FAROS flags them, and the analyst whitelists the JVM. *)

val java_cache_base : int
(** Where the JVM's code cache lands (deterministic allocation). *)

val samples :
  unit -> (string * [ `Ajax | `Applet ] * bool * Scenario.t) list

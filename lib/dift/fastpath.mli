(** Demand-driven DIFT: skip propagation over provably-inert blocks.

    Sits between the machine's execution hook and the {!Engine}: consults the executing translation block's taint
    summary plus O(1) shadow probes, and skips propagation when the
    block provably cannot change shadow state or observer inputs — the
    software analogue of hardware DIFT's decoupled tracking.  Blocks
    whose registers, flags and code bytes are untainted skip outright
    (memory accesses probed per instruction); blocks whose code bytes
    are tainted skip only once their fetch touch has {e converged} —
    every code byte already heads with this process's tag, so the touch
    is a no-op — and then hand observers the cached fetch provenance.
    Never skips the first execution of freshly tainted code (the fetch
    touch must run so the process tag lands on it — instruction-fetch
    taint is FAROS's core injection signal), while a control-dependency
    window is open.
    Skipped instructions still count toward [engine.instrs] and still
    notify load observers with the provenance the slow path would have
    computed, so analysis results are byte-identical with the fast path
    on or off; the four-way differential suite pins this over the
    corpus.  See docs/dift-engine.md. *)

type t

val create : machine:Faros_vm.Machine.t -> Engine.t -> t
(** Non-skipped instructions go straight to the engine.  [machine]
    supplies the currently-executing cached block
    ({!Faros_vm.Machine.cur_block}). *)

val on_exec : t -> Faros_vm.Cpu.t -> Faros_vm.Cpu.effect -> unit
(** Attach in place of {!Engine.on_exec}. *)

val stats : t -> int * int
(** [(hits, misses)]: instructions skipped vs propagated. *)

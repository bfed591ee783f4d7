(** The whole-system DIFT engine.

    Consumes CPU execution effects (per instruction) and kernel events (per
    syscall) and maintains shadow state according to the active {!Policy}.
    Three responsibilities:

    - {b tag insertion}: netflow tags on received packets, file tags on file
      I/O (including image loads), process tags whenever a process touches
      an already-tainted byte — {e including instruction fetch}, which is how
      a victim process's tag ends up on injected code;
    - {b tag propagation}: Table I's copy/union/delete per instruction, plus
      the policy-controlled indirect flows;
    - {b observation}: load observers receive, for every executed load, the
      provenance of the instruction's own code bytes and of the data it
      read — the exact inputs of FAROS's flagging rule. *)

(** What a load observer sees for one executed load instruction. *)
type load_info = {
  li_asid : int;  (** CR3 of the executing process *)
  li_pc : int;  (** virtual address of the load *)
  li_instr : Faros_vm.Isa.t;
  li_instr_prov : Provenance.t;  (** provenance of the load's own code bytes *)
  li_read_vaddr : int;
  li_read_paddr : int;
  li_read_prov : Provenance.t;  (** provenance of the data read *)
}

type t = {
  shadow : Shadow.t;
  store : Tag_store.t;
  interner : Prov_intern.store;
      (** the {!Prov_intern.store} this engine's provenance lives in; the
          engine must only run on a domain whose current store this is *)
  policy : Policy.t;
  file_shadow : (string, Provenance.t array ref) Hashtbl.t;
      (** per-file byte provenance: how taint flows through files (Fig. 4);
          a file's entry appears on its first write *)
  control : (int, int * Provenance.t) Hashtbl.t;
  load_observers : (load_info -> unit) Queue.t;
  metrics : Faros_obs.Metrics.t;  (** registry backing {!stats} *)
  sink : Faros_obs.Sink.t;  (** trace-event channel (null when off) *)
  profile : Faros_obs.Profile.t;
      (** span profiler (disabled by default); [on_os_event] runs under
          [dift.os_event] *)
  c_instrs : Faros_obs.Metrics.counter;
  c_os_events : Faros_obs.Metrics.counter;
  c_netflow_inserts : Faros_obs.Metrics.counter;
  c_file_inserts : Faros_obs.Metrics.counter;
  c_export_inserts : Faros_obs.Metrics.counter;
}

val create :
  ?policy:Policy.t ->
  ?metrics:Faros_obs.Metrics.t ->
  ?sink:Faros_obs.Sink.t ->
  ?profile:Faros_obs.Profile.t ->
  unit ->
  t
(** [metrics] is the registry the engine's counters and gauges live in (a
    fresh one by default); [sink] receives ["tag_insert"] trace events
    (category ["engine"]) and the shadow's ["page_alloc"] events, and
    defaults to the disabled sink.  The engine works against the calling
    domain's current provenance store, which its shadow captures. *)

val add_load_observer : t -> (load_info -> unit) -> unit

val on_exec : t -> Faros_vm.Cpu.t -> Faros_vm.Cpu.effect -> unit
(** Per-instruction propagation: attach as a machine execution hook. *)

val control_active : t -> asid:int -> bool
(** Is a control-dependency window open for this asid?  While one is,
    every write picks up the window's provenance, so the fast path must
    not skip (see {!Fastpath}). *)

val note_skipped : t -> unit
(** Account one instruction the fast path proved propagation-free: it
    still counts toward [engine.instrs], keeping instruction accounting
    identical to the slow path. *)

val notify_skipped_load :
  t -> instr_prov:Provenance.t -> Faros_vm.Cpu.effect -> unit
(** Deliver a skipped load to the observers: empty data provenance (the
    skip preconditions proved the read untainted) and [instr_prov] as the
    code-byte provenance — empty for a code-clean block, the cached
    converged fetch provenance for a code-tainted one.  In both cases
    exactly what the slow path would have computed, so detector counts
    and verdicts stay byte-identical. *)

val on_os_event :
  t -> resolve_asid:(int -> int option) -> Faros_os.Os_event.t -> unit
(** Tag insertion and host-side copy propagation for kernel events.
    Received packets cost one shadow range write per extent; a file read
    costs one per run of one provenance in the file's shadow (one run for a
    file never written); file writes and cross-process copies propagate
    byte by byte inside their extents.  [resolve_asid] maps a pid to its
    CR3 (the kernel knows; the engine must not depend on it). *)

val taint_export_pointers : t -> (string * Faros_vm.Extent.t list) list -> unit
(** Startup scan of loaded modules: taint each exported function pointer's
    physical bytes with an export-table tag carrying the function's name. *)

val instrs_processed : t -> int
(** Instructions the engine has propagated over (a counter read). *)

val refresh_metrics : t -> unit
(** Push current shadow / tag-store / intern-table sizes into registry
    gauges ([shadow.*], [store.*], [prov.interned]). *)

(** A point-in-time summary of the engine, by name — the positional 5-int
    tuple this replaces mixed up its fields too easily. *)
type stats = {
  instrs : int;
  tainted_bytes : int;
  netflow_tags : int;
  process_tags : int;
  file_tags : int;
}

val stats : t -> stats
(** Snapshot the engine (also refreshes the registry gauges). *)

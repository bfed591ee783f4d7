(** Graph construction: an online replay plugin plus offline enrichment.

    Online, the builder is a {!Faros_replay.Plugin.t} subscribed to the
    kernel's {!Faros_os.Os_event} stream (interactions become tick-stamped
    edges as they happen) and a {!Core.Detector} flag observer (each
    effective flag becomes a flag-site node wired to the flagging process
    and to every tag in the flagged instruction's provenance).  Offline,
    {!enrich} walks the finished analysis's shadow memory through
    {!Core.Prov_query} and adds tainted-region nodes, their tainted-by
    source edges and per-process taint totals.

    Construction is narrated as a {!Delta} stream.  By default the
    builder also maintains a resident {!Graph.t} (byte-identical to the
    pre-stream in-place construction); with [~resident:false] only the
    stream consumers see the graph and the builder's own footprint stays
    O(entities' keys) — the shape the bounded-memory segment writer in
    [lib/query] needs for long server traces.  Each first-encountered
    entity additionally carries a run-independent stable identity string
    (processes by image-name hash + creation lineage, flows by 5-tuple +
    tick window, files by path), the join key for cross-run stores.

    Typical wiring (what the CLI and the campaign driver do):
    {[
      let b = ref None in
      let outcome =
        Scenario.analyze
          ~extra_plugins:(fun kernel faros ->
            let bld = Build.create ~sample:id () in
            b := Some bld;
            [ Build.plugin bld ~kernel ~faros ])
          scenario
      in
      Build.enrich (Option.get !b) outcome.faros;
      let g = Build.graph (Option.get !b) in
      ...
    ]} *)

type t

val create :
  ?metrics:Faros_obs.Metrics.t ->
  ?resident:bool ->
  ?consumer:(Delta.t -> unit) ->
  sample:string ->
  unit ->
  t
(** A builder for one sample.  With [metrics], the graph counters
    ([graph.nodes], [graph.edges]) plus [graph.os_events] and
    [graph.flag_sites] are registered in the registry.  [resident]
    (default [true]) keeps a resident {!Graph.t}; [consumer] receives
    every {!Delta.t} as it is produced (after the resident graph, if any,
    applied it). *)

val graph : t -> Graph.t
(** The resident graph.  @raise Invalid_argument if the builder was
    created with [~resident:false]. *)

val plugin :
  t -> kernel:Faros_os.Kernel.t -> faros:Core.Faros_plugin.t -> Faros_replay.Plugin.t
(** The attachable online builder.  Registers the flag observer on
    [faros]'s detector as a side effect; call once per analysis, from the
    replayer's plugin callback (before boot). *)

val enrich : t -> Core.Faros_plugin.t -> unit
(** Offline pass over the finished analysis: tainted-region nodes with
    resolved tainted-by edges, per-process taint stats.  Call after the
    replay (and {!Core.Faros_plugin.finalize}) completed. *)

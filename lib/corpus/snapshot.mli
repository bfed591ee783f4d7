(** The shared corpus snapshot: a keyed build-once cache for immutable
    analysis artifacts (guest [Pe.t] images, payload byte strings) with
    an explicit freeze point.

    Corpus builders route construction through {!image}/{!blob}, so
    scenarios naming the same victim or payload share one physical
    value instead of re-assembling it per sample — the difference
    between O(samples) and O(distinct artifacts) corpus construction,
    which is the campaign driver's serial fraction.

    The campaign driver calls {!freeze} after the corpus is built and
    before worker domains spawn: from then on the tables are never
    mutated, which is what makes sharing them across OCaml 5 domains
    safe.  A post-freeze miss builds without caching (correct, merely
    unshared) and is counted in {!stats} as a late build. *)

type stats = {
  ss_images : int;  (** distinct guest images cached *)
  ss_blobs : int;  (** distinct payload byte strings cached *)
  ss_hits : int;  (** lookups served from the cache *)
  ss_misses : int;  (** build-and-cache fills (pre-freeze) *)
  ss_late_builds : int;  (** post-freeze misses: built, not cached *)
  ss_frozen : bool;
}

val image : string -> (unit -> Faros_os.Pe.t) -> Faros_os.Pe.t
(** [image key build] returns the cached image for [key], calling
    [build] on a miss.  The key must determine the artifact: encode
    every builder parameter into it. *)

val blob : string -> (unit -> string) -> string
(** Same contract for payload byte strings. *)

val freeze : unit -> unit
(** Flip the cache read-only.  Idempotent; call before spawning
    domains. *)

val stats : unit -> stats

val reset_for_tests : unit -> unit
(** Drop everything and thaw.  Must not run while worker domains are
    live. *)

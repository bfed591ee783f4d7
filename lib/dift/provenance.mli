(** Provenance lists (Fig. 4): ordered tag lists, newest first, hash-consed.

    A byte's provenance is its life story — "came from this netflow, was
    touched by this process, then that one".  Every distinct list is
    interned exactly once; a list is identified by a dense integer {!id},
    with {b id 0 reserved for the empty provenance} — the invariant
    {!Shadow}'s paged layout relies on (its pages hold one 4-byte id per
    byte, 0 meaning "untracked byte").

    Equality is physical equality, ids are perfect hashes, and the Table I
    operations ({!prepend}, {!union}) are memoized per id, so the steady
    state of a replay does no list traversal.  Each interned node also
    caches a bitmask of the tag types present and the distinct-process
    count, making the detector's confluence queries integer compares.
    {!max_length} bounds the memory an adversary could force by generating
    enormous tag chains (the "exhaust FAROS' memory" evasion of Section
    VI-D); the cap drops the oldest entries.

    {2 Stores and domain safety}

    All mutable interner state (the id table and the three memo tables)
    lives in a {!store}.  Every domain owns a {e current} store, kept in
    domain-local storage: a fresh domain lazily gets a fresh store, so
    two domains never mutate the same tables.  Concurrent analyses that
    must not share state additionally install a {e fresh} store per job
    ({!set_store} / {!with_store}).

    Contract: an interned value is only meaningful relative to the store
    that minted it.  Never mix values from two stores in one operation,
    and never resolve an id against a store that did not issue it — ids
    are dense per store, so they collide across stores.  {!empty} (id 0)
    is the one value shared by construction. *)

type t

type store
(** One interner instance.  Not thread-safe: a store must only ever be
    used by one domain at a time. *)

val create_store : unit -> store
(** A fresh, empty interner (only id 0, {!empty}, pre-registered). *)

val current_store : unit -> store
(** This domain's active store.  Every construction below goes through
    it. *)

val set_store : store -> unit
(** Install [store] as this domain's active store.  Subsequent
    constructions intern into it; values minted under the previous store
    must no longer be used. *)

val with_store : store -> (unit -> 'a) -> 'a
(** [with_store st f] runs [f] with [st] installed, restoring the
    previous store afterwards (also on exceptions). *)

val store_interned_count : store -> int
(** Number of distinct lists interned into [store]. *)

val resolve : store -> int -> t
(** [resolve store id] is the node [store] issued [id] to.  Raises
    [Invalid_argument] on an id the store never issued. *)

val empty : t
(** The empty provenance; the unique node with {!id} 0 (shared by every
    store). *)

val is_empty : t -> bool

val max_length : int
(** Length cap; constructors drop the {e oldest} entries beyond it. *)

val id : t -> int
(** Dense non-negative integer identifying this list within its store;
    0 iff empty. *)

val length : t -> int

val equal : t -> t -> bool
(** Physical equality — valid because lists are interned. *)

val of_list : Tag.t list -> t
(** Intern a newest-first tag list as-is (capped to {!max_length}). *)

val to_list : t -> Tag.t list
(** The tags, newest first. *)

val head_is_process : int -> t -> bool
(** [head_is_process i p]: the newest tag of [p] is [Process i], iff
    [prepend (Process i) p == p] — how the DIFT fast path proves a
    process's fetch touch has converged without minting any tags or
    allocating. *)

val singleton : Tag.t -> t

val prepend : Tag.t -> t -> t
(** [prepend tag p] puts [tag] at the head (newest position).  A no-op
    when [tag] is already the head, so hot loops do not grow lists; when
    [tag] is present deeper in the list it is {e moved} to the front
    rather than duplicated, so repeated touches by alternating processes
    cannot grow the list and evict its origin tags.  Memoized on
    [(tag, id p)]. *)

val union : t -> t -> t
(** Table I's union: [a]'s tags in order, then tags of [b] not already
    present, capped.  Memoized on [(id a, id b)]. *)

val mem : Tag.t -> t -> bool
val has_type : Tag.ty -> t -> bool
val has_netflow : t -> bool
val has_export : t -> bool
val has_file : t -> bool

val process_indices : t -> int list
(** Distinct process-tag indices, newest first. *)

val file_indices : t -> int list

val distinct_types : t -> Tag.ty list
(** Tag types present, in [Tag.ty] declaration order. *)

val confluence : t -> int
(** Number of distinct tag {e types} present — the "tag confluence" of
    Section IV that the detection policy keys on.  O(1): a popcount of
    the bitmask cached on the interned node. *)

val distinct_process_count : t -> int
(** Number of distinct process-tag indices, cached at intern time — the
    other integer the flagging rule compares. *)

val pp : t Fmt.t

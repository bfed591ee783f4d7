(** Hash-consed provenance lists.

    Every distinct provenance list is interned exactly once; a list is
    identified by a dense integer {!id}, with {b id 0 reserved for the
    empty provenance} — the invariant {!Shadow}'s paged layout relies on
    (its pages are int arrays where 0 means "untracked byte").

    Equality is physical equality, ids are perfect hashes, and the Table I
    operations ({!prepend}, {!union}) are memoized per id, so the steady
    state of a replay does no list traversal.  Each interned node also
    caches a bitmask of the tag types present and the distinct-process
    count, making the detector's confluence queries integer compares.

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

val max_length : int
(** Length cap; constructors drop the {e oldest} entries beyond it. *)

val id : t -> int
(** Dense non-negative integer identifying this list within its store;
    0 iff empty. *)

val length : t -> int
val is_empty : t -> bool

val equal : t -> t -> bool
(** Physical equality — valid because lists are interned. *)

val hash : t -> int

val of_list : Tag.t list -> t
(** Intern a newest-first tag list as-is (capped to {!max_length}). *)

val to_list : t -> Tag.t list
(** The tags, newest first. *)

val head : t -> Tag.t option
(** The newest tag, without materializing the list.  [head p = Some tag]
    iff [prepend tag p == p] — the fast path's fetch-convergence probe. *)

val singleton : Tag.t -> t

val prepend : Tag.t -> t -> t
(** [prepend tag p] puts [tag] at the head (newest position).  A no-op
    when [tag] is already the head; when [tag] is present deeper in the
    list it is {e moved} to the front rather than duplicated, so repeated
    touches by alternating processes cannot grow the list and evict its
    origin tags.  Memoized on [(tag, id p)]. *)

val union : t -> t -> t
(** Table I's union: [a]'s tags in order, then tags of [b] not already
    present, capped.  Memoized on [(id a, id b)]. *)

val mem : Tag.t -> t -> bool
val has_type : Tag.ty -> t -> bool

val distinct_types : t -> Tag.ty list
(** Tag types present, in [Tag.ty] declaration order. *)

val confluence : t -> int
(** Number of distinct tag types present (popcount of the cached mask). *)

val distinct_process_count : t -> int
(** Number of distinct process-tag indices (cached at intern time). *)

val interned_count : unit -> int
(** [store_interned_count (current_store ())], for memory accounting. *)

val pp : t Fmt.t

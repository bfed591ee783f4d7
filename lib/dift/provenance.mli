(** Provenance lists (Fig. 4): ordered tag lists, newest first.

    A byte's provenance is its life story — "came from this netflow, was
    touched by this process, then that one".  Values are the hash-consed
    lists of {!Prov_intern}: every distinct list exists once, so Table I's
    copy rule is a pointer assignment, {!equal} is physical equality,
    {!prepend}/{!union} are memoized, and the type-membership queries are
    cached bitmask reads.  {!max_length} bounds the memory an adversary
    could force by generating enormous tag chains (the "exhaust FAROS'
    memory" evasion of Section VI-D); the cap drops the oldest entries. *)

type t = Prov_intern.t

val empty : t
val is_empty : t -> bool

val max_length : int
(** Upper bound on list length; prepend/union enforce it. *)

val equal : t -> t -> bool
(** Physical equality, valid because lists are interned. *)

val length : t -> int

val of_list : Tag.t list -> t
(** Intern a newest-first tag list (capped to {!max_length}). *)

val to_list : t -> Tag.t list
(** The tags, newest first. *)

val head : t -> Tag.t option
(** The newest tag (O(1), no allocation beyond the option).  By the
    {!prepend} semantics, [head p = Some tag] implies [prepend tag p]
    returns [p] itself — how the DIFT fast path proves a process's fetch
    touch has converged without minting any tags. *)

val singleton : Tag.t -> t

val prepend : Tag.t -> t -> t
(** [prepend tag p] puts [tag] at the head (newest position).  A no-op
    when [tag] is already the head, so hot loops do not grow lists; when
    [tag] is present deeper in the list it is moved to the front rather
    than duplicated, so alternating re-touches cannot evict origin tags. *)

val union : t -> t -> t
(** Table I's union: [union a b] keeps [a]'s order and appends the tags of
    [b] not already present. *)

val mem : Tag.t -> t -> bool
val has_type : Tag.ty -> t -> bool
val has_netflow : t -> bool
val has_export : t -> bool
val has_file : t -> bool

val process_indices : t -> int list
(** Distinct process-tag indices, newest first. *)

val file_indices : t -> int list

val distinct_types : t -> Tag.ty list

val confluence : t -> int
(** Number of distinct tag {e types} present — the "tag confluence" of
    Section IV that the detection policy keys on.  O(1): a popcount of
    the bitmask cached on the interned node. *)

val distinct_process_count : t -> int
(** Number of distinct process-tag indices, cached at intern time — the
    other integer the flagging rule compares. *)

val pp : t Fmt.t

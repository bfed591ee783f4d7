(* Provenance lists (Fig. 4): ordered tag lists, newest first.

   A byte's provenance is its life story: "came from this netflow, was
   touched by this process, then that one".  Every distinct list is
   interned exactly once, as a chain of interned cons cells: a cell is
   unique for its (tag, tail) pair, so a whole list is identified by the
   integer id of its head cell.  Id 0 is the empty provenance — the
   invariant {!Shadow} relies on to store one 4-byte id per byte with 0
   meaning "untracked".

   Interning buys the hot path three things:

   - equality is physical equality (one pointer compare), and a list's id
     is a perfect O(1) hash;
   - the Table I operations memoize: [prepend (tag, id)] and
     [union (id, id)] each hit a table keyed by ids, so the steady state
     of a replay — the same few provenance values flowing through millions
     of instructions — does no list traversal at all;
   - every cell caches a bitmask of the tag *types* below it plus the
     distinct-process count, so the confluence queries the detector asks
     on every load are integer compares, not list scans.

   The intern tables live in a {!store}.  A store is append-only, and tag
   lists are pure values, so interning is semantically transparent — but
   the tables are mutable, so a store must never be touched by two domains
   at once.  Each domain therefore owns a *current* store ([Domain.DLS]);
   all construction goes through it, and analyses that must not share
   state (one campaign job per worker) install a fresh store with
   {!set_store} before building any provenance.  Interned nodes are only
   meaningful relative to the store that minted them: ids from different
   stores collide, so values must not leak across a store switch (the
   node with id 0 — {!empty} — is the one shared exception).

   A length cap bounds the memory an adversary could force by generating
   enormous tag chains (the paper's "exhaust FAROS' memory" evasion); the
   cap drops the *oldest* entries, preserving recent history and the type
   membership of recent tags.  How many distinct lists can exist per
   tag-store population is bounded at the tag-store layer, which refuses
   to mint more than 2^16 tags per type. *)

type t = {
  id : int;
  tag : Tag.t;  (* newest tag; a sentinel for the empty list *)
  next : t;
  len : int;
  mask : int;  (* bitmask of tag types present in the whole list *)
  nproc : int;  (* distinct process-tag indices in the whole list *)
}

let max_length = 64

let rec empty =
  { id = 0; tag = Tag.Netflow 0; next = empty; len = 0; mask = 0; nproc = 0 }

(* One interner instance: the id->node table plus the three memo tables.
   Everything mutable in this module lives here. *)
type store = {
  mutable nodes : t array;  (* id -> node, for the ids in Shadow's pages *)
  mutable node_count : int;
  cons_tbl : (int * int, t) Hashtbl.t;
  prepend_tbl : (int * int, t) Hashtbl.t;
  union_tbl : (int * int, t) Hashtbl.t;
}

let create_store () =
  {
    nodes = Array.make 1024 empty;
    node_count = 1;  (* id 0 is the pre-registered empty list *)
    cons_tbl = Hashtbl.create 4096;
    prepend_tbl = Hashtbl.create 4096;
    union_tbl = Hashtbl.create 4096;
  }

(* The domain-local current store: domains never share an interner, and a
   fresh domain lazily gets a fresh store. *)
let store_key = Domain.DLS.new_key create_store

let current_store () = Domain.DLS.get store_key
let set_store st = Domain.DLS.set store_key st

let with_store st f =
  let prev = current_store () in
  set_store st;
  Fun.protect ~finally:(fun () -> set_store prev) f

let id p = p.id
let length p = p.len
let is_empty p = p.len = 0
let equal (a : t) (b : t) = a == b

let ty_bit = function
  | Tag.Ty_netflow -> 1
  | Tag.Ty_process -> 2
  | Tag.Ty_file -> 4
  | Tag.Ty_export -> 8

(* Injective int key for a tag: tags are a type byte plus a store index. *)
let tag_key tag = (Tag.index tag * 8) + Tag.type_byte tag

let store_interned_count st = st.node_count

let resolve st i =
  if i < 0 || i >= st.node_count then invalid_arg "Provenance.resolve";
  st.nodes.(i)

let register st n =
  if n.id >= Array.length st.nodes then begin
    let grown = Array.make (2 * Array.length st.nodes) empty in
    Array.blit st.nodes 0 grown 0 (Array.length st.nodes);
    st.nodes <- grown
  end;
  st.nodes.(n.id) <- n

let rec mem_proc i p =
  p.len > 0
  && ((match p.tag with Tag.Process j -> j = i | _ -> false) || mem_proc i p.next)

(* The unique cell for [tag :: next] in [st].  All construction funnels
   through here, so two structurally equal lists are always the same node. *)
let cons_in st tag next =
  let key = (tag_key tag, next.id) in
  match Hashtbl.find_opt st.cons_tbl key with
  | Some n -> n
  | None ->
    let nproc =
      match tag with
      | Tag.Process i when not (mem_proc i next) -> next.nproc + 1
      | _ -> next.nproc
    in
    let n =
      {
        id = st.node_count;
        tag;
        next;
        len = next.len + 1;
        mask = next.mask lor ty_bit (Tag.ty tag);
        nproc;
      }
    in
    st.node_count <- st.node_count + 1;
    register st n;
    Hashtbl.replace st.cons_tbl key n;
    n

let cons tag next = cons_in (current_store ()) tag next

let rec to_list p = if p.len = 0 then [] else p.tag :: to_list p.next

let head_is_process i p =
  p.len > 0 && match p.tag with Tag.Process j -> j = i | _ -> false

(* Keep the newest [max_length] tags (the cap drops oldest entries). *)
let cap_list tags =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take max_length tags

let of_list_in st tags = List.fold_right (cons_in st) (cap_list tags) empty
let of_list tags = of_list_in (current_store ()) tags

let mem tag p =
  p.mask land ty_bit (Tag.ty tag) <> 0
  &&
  let rec go q = q.len > 0 && (Tag.equal q.tag tag || go q.next) in
  go p

let has_type ty p = p.mask land ty_bit ty <> 0
let has_netflow p = has_type Tag.Ty_netflow p
let has_export p = has_type Tag.Ty_export p
let has_file p = has_type Tag.Ty_file p

(* Distinct indices of one tag type, newest first (list order preserved). *)
let indices_of f p =
  List.filter_map f (to_list p)
  |> List.fold_left (fun acc i -> if List.mem i acc then acc else i :: acc) []
  |> List.rev

let process_indices p =
  indices_of (function Tag.Process i -> Some i | _ -> None) p

let file_indices p = indices_of (function Tag.File i -> Some i | _ -> None) p

let distinct_types p =
  List.filter
    (fun ty -> has_type ty p)
    [ Tag.Ty_netflow; Tag.Ty_process; Tag.Ty_file; Tag.Ty_export ]

(* Tag confluence (Section IV): the number of distinct tag *types*
   present, a popcount of the cached mask. *)
let confluence p =
  let m = p.mask in
  (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) + ((m lsr 3) land 1)

let distinct_process_count p = p.nproc

(* Remove the first occurrence of [tag] (rebuilds the prefix above it). *)
let rec remove st tag p =
  if p.len = 0 then p
  else if Tag.equal p.tag tag then p.next
  else cons_in st p.tag (remove st tag p.next)

(* Drop the oldest (last) entry. *)
let rec remove_last st p =
  if p.len <= 1 then empty else cons_in st p.tag (remove_last st p.next)

(* Prepend with dedup anywhere in the list: a tag already present is moved
   to the front instead of duplicated, so a byte alternately touched by two
   processes keeps a two-entry history instead of growing to the cap and
   evicting its origin tags. *)
let prepend tag p =
  if p.len > 0 && Tag.equal p.tag tag then p
  else
    let st = current_store () in
    let key = (tag_key tag, p.id) in
    match Hashtbl.find_opt st.prepend_tbl key with
    | Some n -> n
    | None ->
      let n =
        if mem tag p then cons_in st tag (remove st tag p)
        else if p.len >= max_length then cons_in st tag (remove_last st p)
        else cons_in st tag p
      in
      Hashtbl.replace st.prepend_tbl key n;
      n

let singleton tag = cons tag empty

(* Order-preserving union (Table I): [a]'s tags in order, then the tags of
   [b] not already present, capped to the newest [max_length]. *)
let union a b =
  if b.len = 0 then a
  else if a.len = 0 then b
  else if a == b then a
  else
    let st = current_store () in
    let key = (a.id, b.id) in
    match Hashtbl.find_opt st.union_tbl key with
    | Some n -> n
    | None ->
      let extra = List.filter (fun tb -> not (mem tb a)) (to_list b) in
      let n = if extra = [] then a else of_list_in st (to_list a @ extra) in
      Hashtbl.replace st.union_tbl key n;
      n

let pp ppf p = Fmt.(list ~sep:(any " -> ") Tag.pp) ppf (to_list p)

(* Provenance lists (Fig. 4): ordered tag lists, newest first.

   A byte's provenance is its life story: "came from this netflow, was
   touched by this process, then that one".  The representation is the
   hash-consed form of {!Prov_intern}: every distinct list is interned
   once, Table I's copy rule is a pointer assignment, prepend/union are
   memoized per interned id, and the type-membership queries the detector
   keys on are cached bitmask reads.  A length cap bounds the memory an
   adversary could force by generating enormous tag chains (the paper's
   "exhaust FAROS' memory" evasion); the cap drops the *oldest* entries,
   preserving recent history and type membership of recent tags. *)

type t = Prov_intern.t

let empty = Prov_intern.empty
let is_empty = Prov_intern.is_empty
let max_length = Prov_intern.max_length
let equal = Prov_intern.equal
let length = Prov_intern.length
let of_list = Prov_intern.of_list
let to_list = Prov_intern.to_list
let head = Prov_intern.head
let singleton = Prov_intern.singleton

(* Prepend a tag; a no-op if it is already the head (so hot loops do not
   grow lists), a move-to-front if it is already present anywhere (so
   processes re-touching a byte cannot evict its origin tags). *)
let prepend = Prov_intern.prepend

(* Order-preserving union: tags of [b] not already in [a], appended after
   [a] (Table I's union rule). *)
let union = Prov_intern.union

let mem = Prov_intern.mem
let has_type = Prov_intern.has_type

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

(* Tag confluence (Section IV): number of distinct tag *types* present —
   both answered from the bitmask cached on the interned node. *)
let distinct_types = Prov_intern.distinct_types
let confluence = Prov_intern.confluence
let distinct_process_count = Prov_intern.distinct_process_count

let pp = Prov_intern.pp

(* The shared corpus snapshot: one immutable set of analysis artifacts
   (guest images, payload byte strings) built once, shared everywhere.

   Corpus builders construct the same artifacts over and over — every
   reflective sample assembles the same notepad.exe, every sweep point
   re-assembles a payload its neighbours already built.  At 130 samples
   nobody notices; at a 1,000+ sample generated sweep the duplicate
   assembly work (and the duplicate heap copies it leaves behind)
   becomes the campaign driver's serial fraction: corpus construction
   happens before the worker domains exist, so every re-derived artifact
   is pure Amdahl overhead.

   This module is a keyed build-once cache with an explicit freeze
   point:

   - While thawed (corpus-construction time, single-domained by
     construction: the registry lists are built by the driver before any
     pool exists), [image]/[blob] build on first use and return the
     cached physical value after that.  Scenarios that name the same
     victim therefore share ONE [Pe.t] — safe because [Pe.t] and payload
     strings are deeply immutable and scenario installation serializes
     them into each job's private guest filesystem.

   - [freeze] flips the cache read-only.  Called by the campaign driver
     before spawning domains: from that point the tables are never
     mutated, which is exactly the property that makes sharing them
     (inside scenario closures captured by jobs) safe across OCaml 5
     domains.  A post-freeze miss builds WITHOUT caching — correct,
     merely unshared — and is counted, because a hot post-freeze build
     path means someone is constructing corpora inside jobs, defeating
     the snapshot.

   Counters are [Atomic.t] so the stats stay exact even if a worker
   domain does hit the cache concurrently. *)

type stats = {
  ss_images : int;  (* distinct guest images cached *)
  ss_blobs : int;  (* distinct payload byte strings cached *)
  ss_hits : int;  (* lookups served from the cache *)
  ss_misses : int;  (* build-and-cache fills (pre-freeze) *)
  ss_late_builds : int;  (* post-freeze misses: built, not cached *)
  ss_frozen : bool;
}

let images : (string, Faros_os.Pe.t) Hashtbl.t = Hashtbl.create 64
let blobs : (string, string) Hashtbl.t = Hashtbl.create 64
let frozen = Atomic.make false
let hits = Atomic.make 0
let misses = Atomic.make 0
let late_builds = Atomic.make 0

let lookup (tbl : (string, 'a) Hashtbl.t) key (build : unit -> 'a) =
  match Hashtbl.find_opt tbl key with
  | Some v ->
    Atomic.incr hits;
    v
  | None ->
    if Atomic.get frozen then begin
      Atomic.incr late_builds;
      build ()
    end
    else begin
      Atomic.incr misses;
      let v = build () in
      Hashtbl.replace tbl key v;
      v
    end

let image key build = lookup images key build
let blob key build = lookup blobs key build
let freeze () = Atomic.set frozen true

let stats () =
  {
    ss_images = Hashtbl.length images;
    ss_blobs = Hashtbl.length blobs;
    ss_hits = Atomic.get hits;
    ss_misses = Atomic.get misses;
    ss_late_builds = Atomic.get late_builds;
    ss_frozen = Atomic.get frozen;
  }

(* Tests only: drop everything and thaw.  Must not run while worker
   domains are live. *)
let reset_for_tests () =
  Hashtbl.reset images;
  Hashtbl.reset blobs;
  Atomic.set frozen false;
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set late_builds 0

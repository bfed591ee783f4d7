(* Order statistics and the seeded shuffle every workload draws its
   input order from. *)

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [xs] must be non-empty. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

(* The highest reported percentile with at least ten samples beyond it,
   or [None] when there are too few samples for any tail. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float n *. (100. -. p) /. 100. >= 10.)
    [ 99.; 95.; 90.; 75. ]

(* Fisher-Yates under a seed-derived state.  Seed 0 is the identity, so
   seed 0 always runs the inputs in their natural (registry) order. *)
let shuffle ~seed xs =
  if seed = 0 then xs
  else begin
    let a = Array.of_list xs in
    let st = Random.State.make [| 0x5eed; seed |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  end

(* The metrics registry.

   Named counters, gauges and log2-bucketed histograms.  The hot path —
   incrementing a counter, setting a gauge, observing a histogram value —
   is a mutable-int write into an already-registered metric: O(1), no
   allocation, no hashtable lookup.  Registration (the name lookup) happens
   once, at construction time of whatever owns the metric.

   The registry itself is only touched when rendering: [pp_table] and
   [to_json] walk the name table in sorted order, so output is
   deterministic regardless of registration order. *)

type counter = { mutable c_val : int }
type gauge = { mutable g_val : int }

(* Bucket 0 counts observations <= 0; bucket k (k >= 1) counts values v
   with 2^(k-1) <= v < 2^k.  OCaml ints fit in 63 buckets; 48 covers any
   count this system can produce. *)
let histogram_buckets = 48

type histogram = { buckets : int array; mutable h_sum : int }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let register t name wrap make describe =
  match Hashtbl.find_opt t.tbl name with
  | None ->
    let m = make () in
    Hashtbl.replace t.tbl name (wrap m);
    m
  | Some existing -> (
    match describe existing with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with another kind" name))

let counter t name =
  register t name
    (fun c -> Counter c)
    (fun () -> { c_val = 0 })
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun g -> Gauge g)
    (fun () -> { g_val = 0 })
    (function Gauge g -> Some g | _ -> None)

let histogram t name =
  register t name
    (fun h -> Histogram h)
    (fun () -> { buckets = Array.make histogram_buckets 0; h_sum = 0 })
    (function Histogram h -> Some h | _ -> None)

(* -- hot path -- *)

let incr c = c.c_val <- c.c_val + 1
let add c n = c.c_val <- c.c_val + n
let counter_value c = c.c_val

let set g v = g.g_val <- v
let gauge_value g = g.g_val

(* Index of the log2 bucket for [v]: 0 for v <= 0, otherwise one more
   than the position of v's highest set bit, capped at the last bucket. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      v := !v lsr 1;
      b := !b + 1
    done;
    min !b (histogram_buckets - 1)
  end

let observe h v =
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.h_sum <- h.h_sum + v

let histogram_count h = Array.fold_left ( + ) 0 h.buckets
let histogram_sum h = h.h_sum

(* Nonzero buckets as [(lo, hi, count)] with hi exclusive; bucket 0 is
   rendered as (min_int, 1, n). *)
let histogram_bucket_list h =
  let acc = ref [] in
  for k = histogram_buckets - 1 downto 0 do
    if h.buckets.(k) > 0 then
      let lo = if k = 0 then min_int else 1 lsl (k - 1)
      and hi = if k = 0 then 1 else 1 lsl k in
      acc := (lo, hi, h.buckets.(k)) :: !acc
  done;
  !acc

(* -- merging -- *)

let sorted_entries_of tbl =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Fold [src] into [into], by name: counters and histograms add, gauges
   add too (a merged gauge is a campaign-wide total).  Addition is
   commutative and associative, so merging per-worker registries gives
   the same campaign registry regardless of job completion order.  A
   name registered with different kinds in the two registries raises. *)
let merge ~into src =
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> add (counter into name) c.c_val
      | Gauge g ->
        let dst = gauge into name in
        set dst (gauge_value dst + g.g_val)
      | Histogram h ->
        let dst = histogram into name in
        Array.iteri (fun k n -> dst.buckets.(k) <- dst.buckets.(k) + n) h.buckets;
        dst.h_sum <- dst.h_sum + h.h_sum)
    (sorted_entries_of src.tbl)

(* -- rendering -- *)

let sorted_entries t = sorted_entries_of t.tbl

let fold t f init =
  List.fold_left (fun acc (name, m) -> f acc name m) init (sorted_entries t)

let pp_histogram ppf h =
  Fmt.pf ppf "n=%d sum=%d" (histogram_count h) (histogram_sum h);
  List.iter
    (fun (lo, hi, n) ->
      if lo = min_int then Fmt.pf ppf " (..0]:%d" n
      else Fmt.pf ppf " [%d,%d):%d" lo hi n)
    (histogram_bucket_list h)

let pp_table ppf t =
  Fmt.pf ppf "%-36s %-10s %s@." "metric" "kind" "value";
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c -> Fmt.pf ppf "%-36s %-10s %d@." name "counter" c.c_val
      | Gauge g -> Fmt.pf ppf "%-36s %-10s %d@." name "gauge" g.g_val
      | Histogram h ->
        Fmt.pf ppf "%-36s %-10s %a@." name "histogram" pp_histogram h)
    (sorted_entries t)

let to_json t : Json.t =
  let entry (name, m) : Json.t =
    let head kind = [ ("name", Json.Str name); ("kind", Str kind) ] in
    match m with
    | Counter c -> Obj (head "counter" @ [ ("value", Int c.c_val) ])
    | Gauge g -> Obj (head "gauge" @ [ ("value", Int g.g_val) ])
    | Histogram h ->
      let bucket (lo, hi, n) : Json.t =
        Obj [ ("lo", Int (if lo = min_int then 0 else lo)); ("hi", Int hi); ("count", Int n) ]
      in
      Obj
        (head "histogram"
        @ [ ("count", Int (histogram_count h)); ("sum", Int (histogram_sum h));
            ("buckets", List (List.map bucket (histogram_bucket_list h))) ])
  in
  Obj [ ("metrics", List (List.map entry (sorted_entries t))) ]

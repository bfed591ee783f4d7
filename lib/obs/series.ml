(* Tick-sampled time series.

   A fixed-capacity ring buffer of integer rows, one row per sample, all
   rows sharing the same column set.  When the buffer is full the oldest
   rows are overwritten — a long replay keeps a bounded, recent window
   plus the total count of samples ever taken.  Rows are copied on
   [sample], so callers may reuse a scratch array. *)

type t = {
  columns : string array;
  slots : int array option array;  (* capacity ring slots *)
  mutable total : int;  (* samples ever taken, including overwritten *)
}

let create ~capacity ~columns =
  if capacity <= 0 then invalid_arg "Series.create: capacity must be positive";
  if columns = [] then invalid_arg "Series.create: no columns";
  { columns = Array.of_list columns; slots = Array.make capacity None; total = 0 }

let columns t = Array.to_list t.columns
let capacity t = Array.length t.slots
let total t = t.total
let length t = min t.total (capacity t)

let sample t row =
  if Array.length row <> Array.length t.columns then
    invalid_arg "Series.sample: row arity does not match columns";
  t.slots.(t.total mod capacity t) <- Some (Array.copy row);
  t.total <- t.total + 1

(* The [i]-th oldest retained row (0 = oldest still in the buffer). *)
let get t i =
  if i < 0 || i >= length t then invalid_arg "Series.get: out of range";
  let oldest = max 0 (t.total - capacity t) in
  match t.slots.((oldest + i) mod capacity t) with
  | Some row -> Array.copy row
  | None -> assert false

let rows t = List.init (length t) (get t)

let last t = if length t = 0 then None else Some (get t (length t - 1))

(* Values of one column, oldest retained first. *)
let column t name =
  let idx =
    let found = ref (-1) in
    Array.iteri (fun i c -> if c = name then found := i) t.columns;
    if !found < 0 then invalid_arg ("Series.column: no column " ^ name);
    !found
  in
  List.map (fun row -> row.(idx)) (rows t)

(* -- export -- *)

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (Array.to_list t.columns));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (List.map string_of_int (Array.to_list row)));
      Buffer.add_char buf '\n')
    (rows t);
  Buffer.contents buf

let to_json t : Json.t =
  let ints row = Json.List (List.map (fun v -> Json.Int v) (Array.to_list row)) in
  Obj
    [
      ("columns", List (List.map (fun c -> Json.Str c) (Array.to_list t.columns)));
      ("total_samples", Int t.total);
      ("rows", List (List.map ints (rows t)));
    ]

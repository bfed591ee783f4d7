(* The pipeline benchmark's own checks: BENCHMARK.json agrees with the
   harness's metric table, the order statistics and seed shuffles behave,
   and a tablev op is deterministic with and without tracing. *)

open Bench_pipeline

(* -- BENCHMARK.json, read without a JSON library -------------------------- *)

let benchmark_json =
  let ic = open_in_bin "../../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Tokens of the file: punctuation, strings (escapes kept verbatim: no
   name or unit has one) and bare words such as numbers. *)
type token = Punct of char | Str of string | Word of string

let tokens s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\n' | '\t' | '\r' -> go (i + 1) acc
      | ('{' | '}' | '[' | ']' | ':' | ',') as c -> go (i + 1) (Punct c :: acc)
      | '"' ->
        let rec close j =
          match s.[j] with '\\' -> close (j + 2) | '"' -> j | _ -> close (j + 1)
        in
        let j = close (i + 1) in
        go (j + 1) (Str (String.sub s (i + 1) (j - i - 1)) :: acc)
      | _ ->
        let rec stop j =
          if j < n && not (String.contains " \n\t\r{}[]:,\"" s.[j]) then stop (j + 1) else j
        in
        let j = stop i in
        go j (Word (String.sub s i (j - i)) :: acc)
  in
  go 0 []

(* The flat objects of the array under top-level [key], each as
   (field, value) pairs. *)
let objects key =
  let rec find = function
    | Str k :: Punct ':' :: Punct '[' :: rest when k = key -> rest
    | _ :: rest -> find rest
    | [] -> Alcotest.failf "BENCHMARK.json has no %s array" key
  in
  let rec fields acc = function
    | Str k :: Punct ':' :: (Str v | Word v) :: rest -> (
      match rest with
      | Punct ',' :: rest -> fields ((k, v) :: acc) rest
      | Punct '}' :: rest -> (List.rev ((k, v) :: acc), rest)
      | _ -> Alcotest.failf "unexpected token in %s" key)
    | _ -> Alcotest.failf "unexpected token in %s" key
  in
  let rec elements acc = function
    | Punct '{' :: rest ->
      let obj, rest = fields [] rest in
      elements (obj :: acc) rest
    | Punct ',' :: rest -> elements acc rest
    | Punct ']' :: _ -> List.rev acc
    | _ -> Alcotest.failf "unexpected token in %s" key
  in
  elements [] (find (tokens benchmark_json))

let field obj k =
  match List.assoc_opt k obj with
  | Some v -> v
  | None -> Alcotest.failf "object without %S" k

let valid_name n =
  n <> ""
  && String.length n <= 64
  && (match n.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let test_workloads () =
  let names = List.map (fun o -> field o "name") (objects "workloads") in
  Alcotest.(check (list string)) "workload names" Spec.workload_names names

let test_end_to_end () =
  let json = objects "end_to_end" in
  Alcotest.(check bool) "1..16 end-to-end metrics" true
    (List.length Spec.end_to_end >= 1 && List.length Spec.end_to_end <= 16);
  Alcotest.(check (list (list string)))
    "end_to_end matches the harness table"
    (List.map
       (fun (e : Spec.e2e) ->
         [ e.e_name; e.e_unit; Spec.better_name e.e_better; string_of_float e.e_bound ])
       Spec.end_to_end)
    (List.map
       (fun o ->
         [
           field o "name"; field o "unit"; field o "better";
           string_of_float (float_of_string (field o "bound"));
         ])
       json);
  List.iter
    (fun (e : Spec.e2e) ->
      Alcotest.(check bool) (e.e_name ^ " is a valid name") true (valid_name e.e_name);
      Alcotest.(check bool) (e.e_name ^ " bound <= 0.25") true
        (e.e_bound > 0. && e.e_bound <= 0.25))
    Spec.end_to_end;
  match Spec.find_e2e "setup_s" with
  | Some e -> Alcotest.(check string) "setup_s unit" "s" e.e_unit
  | None -> Alcotest.fail "no setup_s"

let test_per_layer () =
  let json = objects "per_layer" in
  Alcotest.(check bool) "1..128 per-layer metrics" true
    (List.length Spec.per_layer >= 1 && List.length Spec.per_layer <= 128);
  Alcotest.(check (list (list string)))
    "per_layer matches the harness table"
    (List.map
       (fun (l : Spec.layer) -> [ l.l_name; l.l_unit; Spec.better_name l.l_better ])
       Spec.per_layer)
    (List.map (fun o -> [ field o "name"; field o "unit"; field o "better" ]) json);
  let all = List.map (fun (l : Spec.layer) -> l.l_name) Spec.per_layer in
  Alcotest.(check int) "names used once" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun (l : Spec.layer) ->
      Alcotest.(check bool) (l.l_name ^ " is a valid name") true (valid_name l.l_name);
      Alcotest.(check bool) (l.l_name ^ " moves something") true (l.l_moves <> []);
      List.iter
        (fun (e, ws) ->
          Alcotest.(check bool)
            (l.l_name ^ " moves an end-to-end metric: " ^ e)
            true
            (Spec.find_e2e e <> None);
          List.iter
            (fun w ->
              Alcotest.(check bool)
                (l.l_name ^ " names a workload: " ^ w)
                true
                (List.mem w Spec.workload_names))
            ws)
        l.l_moves)
    Spec.per_layer

(* -- statistics ------------------------------------------------------------- *)

let test_tail () =
  Alcotest.(check (option (float 0.))) "n=100" (Some 90.) (Stats.tail_percentile 100);
  Alcotest.(check (option (float 0.))) "n=40" (Some 75.) (Stats.tail_percentile 40);
  Alcotest.(check (option (float 0.))) "n=5" None (Stats.tail_percentile 5);
  Alcotest.(check (option (float 0.))) "n=1000" (Some 99.) (Stats.tail_percentile 1000)

let test_percentile () =
  let xs = List.init 100 (fun i -> float (100 - i)) in
  Alcotest.(check (float 0.)) "median" 50. (Stats.median xs);
  Alcotest.(check (float 0.)) "p25" 25. (Stats.percentile 25. xs);
  Alcotest.(check (float 0.)) "p90" 90. (Stats.percentile 90. xs);
  Alcotest.(check (float 0.)) "p25 of five" 2. (Stats.percentile 25. [ 5.; 4.; 3.; 2.; 1. ])

let test_shuffle () =
  let xs = List.init 50 Fun.id in
  Alcotest.(check (list int)) "seed 0 is the identity" xs (Stats.shuffle ~seed:0 xs);
  Alcotest.(check (list int)) "deterministic" (Stats.shuffle ~seed:1 xs)
    (Stats.shuffle ~seed:1 xs);
  Alcotest.(check (list int)) "a permutation" xs
    (List.sort compare (Stats.shuffle ~seed:7 xs));
  Alcotest.(check bool) "seed 1 reorders" true (Stats.shuffle ~seed:1 xs <> xs);
  Alcotest.(check bool) "seeds differ" true
    (Stats.shuffle ~seed:1 xs <> Stats.shuffle ~seed:2 xs)

(* -- a tablev op ---------------------------------------------------------------- *)

let test_tablev_op () =
  let prog =
    Tablev.record (List.find (fun (l, _) -> l = "Pandora") (Faros_corpus.Perf.workloads ()))
  in
  Harness.fresh ();
  let ok1, fp1 = Tablev.pass [ prog ] in
  Harness.fresh ();
  let ok2, fp2 = Tablev.pass [ prog ] in
  Harness.fresh ();
  let probe = Harness.probe () in
  let ok3, fp3 = Tablev.pass ~probe [ prog ] in
  Alcotest.(check bool) "checks pass" true (ok1 && ok2 && ok3);
  Alcotest.(check string) "same fingerprint twice" fp1 fp2;
  Alcotest.(check string) "tracing does not change the fingerprint" fp1 fp3;
  Alcotest.(check bool) "traced op read the OS-event hook" true
    (Harness.get probe "dift.os_event_s" > 0.);
  Alcotest.(check (float 0.)) "traced op counted the guest instructions"
    (float prog.trace.final_tick) (Harness.get probe "vm.guest_instrs")

let () =
  Alcotest.run "pipeline"
    [
      ( "benchmark.json",
        [
          Alcotest.test_case "workloads" `Quick test_workloads;
          Alcotest.test_case "end_to_end" `Quick test_end_to_end;
          Alcotest.test_case "per_layer" `Quick test_per_layer;
        ] );
      ( "stats",
        [
          Alcotest.test_case "tail picker" `Quick test_tail;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "seed shuffle" `Quick test_shuffle;
        ] );
      ("tablev", [ Alcotest.test_case "op is deterministic" `Quick test_tablev_op ]);
    ]

(* The pipeline benchmark.  Runs one workload and prints a manifest line,
   one `name value unit` line per metric, then one JSON result line:

     dune exec bench/pipeline/pipeline.exe -- --workload W [--seed S]
       [--seconds N] [--trace [0|1]]

   Untraced runs report the end-to-end metrics; traced runs (--trace or
   --trace 1) report the per-layer metrics.  The exit code is 1 when a
   correctness check failed, 2 on a usage error. *)

open Bench_pipeline

let usage () =
  prerr_endline
    ("usage: pipeline.exe --workload "
    ^ String.concat "|" Spec.workload_names
    ^ " [--seed N] [--seconds N] [--trace [0|1]]");
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds > 0. -> go { a with seconds } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--trace" :: rest -> go { a with trace = true } rest
    | _ -> usage ()
  in
  go { workload = ""; seed = 0; seconds = 10.; trace = false } argv

(* Numbers as measured, with all their digits. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when c < ' ' -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let run =
    match a.workload with
    | "tablev" -> Tablev.run
    | "netd" -> Netd.run
    | "sweep1k" -> Sweep1k.run
    | "store" -> Store_sessions.run
    | _ -> usage ()
  in
  let r = run ~seed:a.seed ~seconds:a.seconds ~trace:a.trace in
  let l = r.r_loop in
  let metrics =
    if a.trace then
      List.map
        (fun (m : Spec.layer) ->
          (m.l_name, Harness.get r.r_layers m.l_name, m.l_unit))
        Spec.per_layer
    else
      List.map
        (fun (e : Spec.e2e) ->
          let v =
            match e.e_name with
            | "setup_s" -> r.r_setup_s
            | "op_p25_s" -> Stats.percentile 25. l.ops
            | "peak_rss_mb" -> Harness.peak_rss_mb ()
            | n -> failwith ("no measurement for " ^ n)
          in
          (e.e_name, v, e.e_unit))
        Spec.end_to_end
  in
  let metrics =
    List.map
      (fun (n, v, u) ->
        if Float.is_finite v then (n, v, u)
        else begin
          Printf.eprintf "warning: %s is not finite; reported as 0\n" n;
          (n, 0., u)
        end)
      metrics
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) r.r_checks in
  List.iter (fun (name, _) -> Printf.eprintf "check failed: %s\n" name) failed_checks;
  let correct = l.failed = 0 && failed_checks = [] in
  let manifest =
    [
      ("workload", json_string a.workload);
      ("seed", string_of_int a.seed);
      ("seconds", num a.seconds);
      ("trace", string_of_bool a.trace);
      ("ops", string_of_int (List.length l.ops));
      ("traced_ops", string_of_int (List.length l.traced));
      ("nproc", string_of_int (Harness.nproc ()));
      ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
      ("spawned", string_of_int r.r_spawned);
      ("ocaml", json_string Sys.ocaml_version);
      ("tb_cache", string_of_bool !Faros_vm.Machine.tb_default_enabled);
      ("dift_fast", string_of_bool !Faros_vm.Machine.dift_fast_default_enabled);
      ("env", "[" ^ String.concat "," (List.map json_string (Harness.faros_env ())) ^ "]");
    ]
  in
  let obj kvs =
    "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kvs) ^ "}"
  in
  print_endline ("manifest " ^ obj manifest);
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (num v) u) metrics;
  (* Not gated, printed for the reader: the median and tail op times
     and the failure ratio. *)
  if not a.trace then begin
    let n = List.length l.ops in
    Printf.printf "op_p50_s %s s\n" (num (Stats.median l.ops));
    Option.iter
      (fun p -> Printf.printf "op_p%.0f_s %s s\n" p (num (Stats.percentile p l.ops)))
      (Stats.tail_percentile n);
    Printf.printf "op_count %d count\n" n
  end;
  Printf.printf "fail_ratio %s failed/attempted\n"
    (num (float l.failed /. float l.attempted));
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int l.attempted);
         ("failed", string_of_int l.failed);
         ( "metrics",
           obj
             (List.map
                (fun (n, v, u) -> (n, obj [ ("value", num v); ("unit", json_string u) ]))
                metrics) );
       ]);
  exit (if correct then 0 else 1)

(* Tests for the observability layer: metrics registry, time series, the
   event sink and its Chrome export, the JSON checker, and the telemetry
   sampled from a real replay. *)

open Faros_obs

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* -- metrics registry ---------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "counter increments and adds" `Quick (fun () ->
        let m = Metrics.create () in
        let c = Metrics.counter m "a" in
        Metrics.incr c;
        Metrics.incr c;
        Metrics.add c 40;
        check "value" 42 (Metrics.counter_value c));
    Alcotest.test_case "gauge holds the last set value" `Quick (fun () ->
        let m = Metrics.create () in
        let g = Metrics.gauge m "g" in
        Metrics.set g 7;
        Metrics.set g 3;
        check "value" 3 (Metrics.gauge_value g));
    Alcotest.test_case "registration is idempotent" `Quick (fun () ->
        let m = Metrics.create () in
        let c1 = Metrics.counter m "shared" in
        Metrics.incr c1;
        let c2 = Metrics.counter m "shared" in
        Metrics.incr c2;
        check "same underlying cell" 2 (Metrics.counter_value c1));
    Alcotest.test_case "kind mismatch raises" `Quick (fun () ->
        let m = Metrics.create () in
        ignore (Metrics.counter m "x");
        Alcotest.check_raises "gauge over counter"
          (Invalid_argument "Metrics: \"x\" already registered with another kind")
          (fun () -> ignore (Metrics.gauge m "x")));
    Alcotest.test_case "histogram log2 bucketing" `Quick (fun () ->
        let m = Metrics.create () in
        let h = Metrics.histogram m "h" in
        List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 1000 ];
        check "count" 6 (Metrics.histogram_count h);
        check "sum" 1010 (Metrics.histogram_sum h);
        let buckets = Metrics.histogram_bucket_list h in
        (* 0 -> (<=0); 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8); 1000 -> [512,1024) *)
        Alcotest.(check (list (triple int int int)))
          "buckets"
          [
            (min_int, 1, 1); (1, 2, 1); (2, 4, 2); (4, 8, 1); (512, 1024, 1);
          ]
          buckets);
    Alcotest.test_case "merge adds counters, gauges and histograms" `Quick
      (fun () ->
        let mk c g obs =
          let m = Metrics.create () in
          Metrics.add (Metrics.counter m "c") c;
          Metrics.set (Metrics.gauge m "g") g;
          List.iter (Metrics.observe (Metrics.histogram m "h")) obs;
          m
        in
        let into = mk 10 1 [ 1; 2 ] in
        Metrics.merge ~into (mk 32 2 [ 2; 1000 ]);
        check "counters add" 42 (Metrics.counter_value (Metrics.counter into "c"));
        check "gauges add" 3 (Metrics.gauge_value (Metrics.gauge into "g"));
        let h = Metrics.histogram into "h" in
        check "histogram count" 4 (Metrics.histogram_count h);
        check "histogram sum" 1005 (Metrics.histogram_sum h);
        (* merging a registry with disjoint names creates the cells *)
        let other = Metrics.create () in
        Metrics.incr (Metrics.counter other "only.there");
        Metrics.merge ~into other;
        check "new name lands" 1
          (Metrics.counter_value (Metrics.counter into "only.there")));
    Alcotest.test_case "rendering is sorted and deterministic" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.set (Metrics.gauge m "z.last") 1;
        Metrics.incr (Metrics.counter m "a.first");
        let rendered = Fmt.str "%a" Metrics.pp_table m in
        let idx needle =
          let n = String.length needle and len = String.length rendered in
          let rec go i =
            if i + n > len then Alcotest.failf "%s not rendered" needle
            else if String.sub rendered i n = needle then i
            else go (i + 1)
          in
          go 0
        in
        check_b "a before z" true (idx "a.first" < idx "z.last"));
    Alcotest.test_case "registry JSON is well-formed" `Quick (fun () ->
        let m = Metrics.create () in
        Metrics.incr (Metrics.counter m "quoted\"name");
        Metrics.observe (Metrics.histogram m "h") 5;
        match Json.well_formed (Json.to_string (Metrics.to_json m)) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

(* -- json ----------------------------------------------------------------- *)

(* [depth] arrays, each holding the next. *)
let nested depth = String.make depth '[' ^ String.make depth ']'

(* Every case goes through both [parse] and [well_formed], so the store's
   reader and the checker cannot drift apart. *)
let json_tests =
  [
    Alcotest.test_case "accepts valid documents" `Quick (fun () ->
        List.iter
          (fun s ->
            (match Json.well_formed s with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%S rejected: %s" s e);
            match Json.parse s with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%S not parsed: %s" s e)
          [
            "{}";
            "[]";
            "  null ";
            {|{"a":[1,-2.5e3,true,false,null],"b":{"c":"d\neA"}}|};
            {|"lone string"|};
            "3.14";
            "0";
            "-0";
            "[0,10,-7]";
            "1E+2";
            {|"\u00e9\/"|};
            "123456789012345678901234567890";
            nested 512;
          ]);
    Alcotest.test_case "rejects malformed documents" `Quick (fun () ->
        List.iter
          (fun s ->
            (match Json.well_formed s with
            | Ok () -> Alcotest.failf "%S accepted" s
            | Error _ -> ());
            match Json.parse s with
            | Ok _ -> Alcotest.failf "%S parsed" s
            | Error _ -> ())
          [
            "";
            "{";
            "[1,]";
            {|{"a":}|};
            {|{"a":1,}|};
            "[1] trailing";
            {|{"a":1}x|};
            {|"unterminated|};
            "{1:2}";
            "nul";
            {|"\q"|};
            {|"\u12"|};
            {|"\u_123"|};
            "01";
            "-01";
            "[01,2]";
            "1.";
            "1e";
            "-";
            "\"a\x01b\"";
            nested 513;
            String.make 1_000_000 '[';
          ]);
    Alcotest.test_case "errors name the offset" `Quick (fun () ->
        check_s "parse" "expected '\"' at offset 7"
          (match Json.parse {|{"a":1,}|} with Ok _ -> "ok" | Error e -> e);
        check_s "well_formed" "leading zero at offset 6"
          (match Json.well_formed {|{"a":01}|} with
          | Ok () -> "ok"
          | Error e -> e);
        check_s "nesting" "nesting deeper than 512 at offset 512"
          (match Json.parse (nested 513) with Ok _ -> "ok" | Error e -> e);
        check_s "nested objects" "nesting deeper than 512 at offset 2560"
          (match Json.well_formed (String.concat "" (List.init 513 (fun _ -> {|{"a":|})))
           with
          | Ok () -> "ok"
          | Error e -> e));
    Alcotest.test_case "parses what the sinks emit" `Quick (fun () ->
        let row =
          {|{"v":1,"type":"graph_node","run":"r","seq":3,"ord":0,"ident":"proc|ab|x:0","kind":"process","pid":100,"name":"a \"b\" \\ c","tainted":0}|}
        in
        match Json.parse row with
        | Error e -> Alcotest.failf "parse: %s" e
        | Ok v ->
          let geti k = Option.value ~default:(-1) (Json.int_mem v k) in
          let gets k = Option.value ~default:"" (Json.str_mem v k) in
          check "seq" 3 (geti "seq");
          check_s "name unescaped" "a \"b\" \\ c" (gets "name");
          check_s "ident" "proc|ab|x:0" (gets "ident"));
    Alcotest.test_case "escape round-trips through the checker" `Quick (fun () ->
        let s = "quote\" backslash\\ newline\n ctrl\x01 high\xff" in
        match Json.parse (Json.to_string (Str s)) with
        | Ok (Str back) -> check_s "same string back" s back
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e);
  ]

(* -- series ---------------------------------------------------------------- *)

let series_tests =
  [
    Alcotest.test_case "records rows in order" `Quick (fun () ->
        let s = Series.create ~capacity:8 ~columns:[ "a"; "b" ] in
        Series.sample s [| 1; 2 |];
        Series.sample s [| 3; 4 |];
        check "length" 2 (Series.length s);
        Alcotest.(check (list int)) "column a" [ 1; 3 ] (Series.column s "a");
        Alcotest.(check (list int)) "column b" [ 2; 4 ] (Series.column s "b"));
    Alcotest.test_case "ring buffer wraps, keeping the newest rows" `Quick
      (fun () ->
        let s = Series.create ~capacity:3 ~columns:[ "v" ] in
        for v = 1 to 10 do
          Series.sample s [| v |]
        done;
        check "total counts everything" 10 (Series.total s);
        check "length capped" 3 (Series.length s);
        Alcotest.(check (list int)) "newest retained" [ 8; 9; 10 ]
          (Series.column s "v");
        check "oldest retained row" 8 (Series.get s 0).(0);
        Alcotest.(check (option (array int))) "last" (Some [| 10 |])
          (Series.last s));
    Alcotest.test_case "arity mismatch raises" `Quick (fun () ->
        let s = Series.create ~capacity:2 ~columns:[ "a"; "b" ] in
        Alcotest.check_raises "short row"
          (Invalid_argument "Series.sample: row arity does not match columns")
          (fun () -> Series.sample s [| 1 |]));
    Alcotest.test_case "sampled row is copied" `Quick (fun () ->
        let s = Series.create ~capacity:2 ~columns:[ "a" ] in
        let row = [| 1 |] in
        Series.sample s row;
        row.(0) <- 99;
        check "unaffected" 1 (Series.get s 0).(0));
    Alcotest.test_case "csv has header plus one line per row" `Quick (fun () ->
        let s = Series.create ~capacity:4 ~columns:[ "a"; "b" ] in
        Series.sample s [| 1; 2 |];
        check_s "csv" "a,b\n1,2\n" (Series.to_csv s));
    Alcotest.test_case "json export is well-formed" `Quick (fun () ->
        let s = Series.create ~capacity:4 ~columns:[ "a"; "b" ] in
        Series.sample s [| 1; 2 |];
        Series.sample s [| 3; 4 |];
        match Json.well_formed (Json.to_string (Series.to_json s)) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

(* -- trace events on the sink ------------------------------------------------ *)

let int_field row k =
  match Json.int_mem row k with
  | Some i -> i
  | None -> Alcotest.failf "row has no int %s" k

let str_field row k =
  match Json.str_mem row k with
  | Some v -> v
  | None -> Alcotest.failf "row has no string %s" k

let trace_tests =
  [
    Alcotest.test_case "null sink is disabled and collects nothing" `Quick
      (fun () ->
        let t = Sink.null in
        check_b "disabled" false (Sink.enabled t);
        Sink.trace_event t ~cat:"c" ~name:"n" ~pid:1 [];
        check "no events" 0 (Sink.events t);
        Alcotest.(check (list string)) "empty" [] (Sink.lines t));
    Alcotest.test_case "collector records events with the clock" `Quick
      (fun () ->
        let t = Sink.create () in
        check_b "enabled" true (Sink.enabled t);
        let now = ref 0 in
        Sink.set_clock t (fun () -> !now);
        now := 5;
        Sink.trace_event t ~cat:"engine" ~name:"tag_insert" ~pid:7
          [ ("bytes", Int 3) ];
        now := 9;
        Sink.trace_event t ~cat:"detector" ~name:"flag" ~pid:7 [];
        check "count" 2 (Sink.events t);
        match Sink.trace_rows t with
        | [ e1; e2 ] ->
          check "ts1" 5 (int_field e1 "ts");
          check "ts2" 9 (int_field e2 "ts");
          check_s "name1" "tag_insert" (str_field e1 "name");
          check_s "cat2" "detector" (str_field e2 "cat");
          check "tid defaults to pid" 7 (int_field e1 "tid")
        | _ -> Alcotest.fail "expected two rows");
    Alcotest.test_case "collector drops past its limit" `Quick (fun () ->
        let t = Sink.create ~limit:2 () in
        for i = 1 to 5 do
          Sink.trace_event t ~cat:"c" ~name:"n" ~pid:i []
        done;
        check "kept" 2 (Sink.events t);
        check "dropped" 3 (Sink.dropped t);
        Alcotest.(check (list int))
          "the oldest rows are kept" [ 1; 2 ]
          (List.map (fun row -> int_field row "pid") (Sink.trace_rows t)));
    Alcotest.test_case "chrome export is well-formed JSON" `Quick (fun () ->
        let t = Sink.create () in
        Sink.trace_event t ~cat:"engine" ~name:"tag \"quoted\"" ~pid:1
          [ ("s", Str "q\"n\nc\001"); ("i", Int 3); ("b", Bool true) ];
        let chrome = Sink.to_chrome_json t in
        check_s "pinned"
          {|{"traceEvents":[{"name":"tag \"quoted\"","cat":"engine","ph":"i","s":"g","ts":0,"pid":1,"tid":1,"args":{"s":"q\"n\nc\u0001","i":3,"b":true}}],"displayTimeUnit":"ms","otherData":{"events":1,"dropped":0}}|}
          chrome;
        match Json.well_formed chrome with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

(* -- profile ----------------------------------------------------------------- *)

(* A deterministic profiler: a mutable fake clock the tests advance by
   hand, so every wall-time assertion is exact. *)
let fake_profile () =
  let now = ref 0 in
  (Profile.create ~clock:(fun () -> !now) (), now)

let find_span profile path =
  match
    List.find_opt (fun (s : Profile.span) -> s.sp_path = path)
      (Profile.spans profile)
  with
  | Some s -> s
  | None -> Alcotest.failf "span %s not recorded" path

let profile_tests =
  [
    Alcotest.test_case "disabled profiler is inert" `Quick (fun () ->
        let p = Profile.disabled in
        check_b "disabled" false (Profile.enabled p);
        Profile.enter p "a";
        Profile.exit p;
        check "with_span is just the thunk" 42
          (Profile.with_span p "b" (fun () -> 42));
        Alcotest.(check (list reject)) "no spans" [] (Profile.spans p);
        check "total" 0 (Profile.total_ns p));
    Alcotest.test_case "fake clock: nesting, totals, self time" `Quick
      (fun () ->
        let p, now = fake_profile () in
        Profile.enter p "outer";
        now := 10;
        Profile.enter p "inner";
        now := 30;
        Profile.exit p;
        (* inner: 20ns *)
        now := 100;
        Profile.exit p;
        (* outer: 100ns inclusive *)
        let outer = find_span p "outer" and inner = find_span p "outer/inner" in
        check "outer depth" 0 outer.sp_depth;
        check "inner depth" 1 inner.sp_depth;
        check "outer total" 100 outer.sp_total_ns;
        check "inner total" 20 inner.sp_total_ns;
        check "outer self = total - child" 80 outer.sp_self_ns;
        check "inner self" 20 inner.sp_self_ns;
        check "coverage denominator" 100 (Profile.total_ns p));
    Alcotest.test_case "same name under two parents is two nodes" `Quick
      (fun () ->
        let p, now = fake_profile () in
        let span name ns f =
          Profile.enter p name;
          now := !now + ns;
          f ();
          Profile.exit p
        in
        span "record" 5 (fun () -> span "kernel.syscall" 3 (fun () -> ()));
        span "replay" 7 (fun () -> span "kernel.syscall" 4 (fun () -> ()));
        check "record/kernel.syscall" 3
          (find_span p "record/kernel.syscall").sp_total_ns;
        check "replay/kernel.syscall" 4
          (find_span p "replay/kernel.syscall").sp_total_ns;
        (* preorder, first-entered order — deterministic *)
        Alcotest.(check (list string))
          "span order"
          [ "record"; "record/kernel.syscall"; "replay"; "replay/kernel.syscall" ]
          (List.map (fun (s : Profile.span) -> s.sp_path) (Profile.spans p)));
    Alcotest.test_case "call counts aggregate on one node" `Quick (fun () ->
        let p, now = fake_profile () in
        for _ = 1 to 5 do
          Profile.with_span p "hot" (fun () -> now := !now + 2)
        done;
        let s = find_span p "hot" in
        check "count" 5 s.sp_count;
        check "total" 10 s.sp_total_ns);
    Alcotest.test_case "with_span closes the span on exceptions" `Quick
      (fun () ->
        let p, now = fake_profile () in
        (try
           Profile.with_span p "risky" (fun () ->
               now := 4;
               failwith "boom")
         with Failure _ -> ());
        Profile.with_span p "after" (fun () -> ());
        check "risky closed at depth 0" 0 (find_span p "risky").sp_depth;
        check "sibling, not child" 0 (find_span p "after").sp_depth);
    Alcotest.test_case "with_span also closes bare spans an exception skipped"
      `Quick (fun () ->
        (* A syscall handler raising inside [kernel.syscall], which opens
           with a bare [enter], under two [with_span] phases. *)
        let p, now = fake_profile () in
        (try
           Profile.with_span p "farm.job.run" (fun () ->
               Profile.with_span p "replay" (fun () ->
                   Profile.enter p "kernel.syscall";
                   now := 7;
                   failwith "handler raised"))
         with Failure _ -> ());
        Profile.with_span p "farm.job.run" (fun () -> now := 10);
        Alcotest.(check (list string))
          "the next job is a sibling, not a child"
          [ "farm.job.run"; "farm.job.run/replay";
            "farm.job.run/replay/kernel.syscall" ]
          (List.map (fun (s : Profile.span) -> s.sp_path) (Profile.spans p));
        let job = find_span p "farm.job.run" in
        check "both jobs closed" 2 job.sp_count;
        check "job time" 10 job.sp_total_ns;
        check "replay closed" 7 (find_span p "farm.job.run/replay").sp_total_ns;
        let sys = find_span p "farm.job.run/replay/kernel.syscall" in
        check "syscall closed" 1 sys.sp_count;
        check "syscall time" 7 sys.sp_total_ns);
    Alcotest.test_case "unbalanced exit is ignored" `Quick (fun () ->
        let p, _ = fake_profile () in
        Profile.exit p;
        Profile.with_span p "a" (fun () -> ());
        check "still records" 1 (List.length (Profile.spans p)));
    Alcotest.test_case "merge adds matching paths, creates missing ones"
      `Quick (fun () ->
        let mk spec =
          let p, now = fake_profile () in
          List.iter
            (fun (name, ns) -> Profile.with_span p name (fun () -> now := !now + ns))
            spec;
          p
        in
        let into = mk [ ("a", 10); ("b", 5) ] in
        Profile.merge ~into (mk [ ("a", 32); ("c", 7) ]);
        check "a added" 42 (find_span into "a").sp_total_ns;
        check "a count" 2 (find_span into "a").sp_count;
        check "b kept" 5 (find_span into "b").sp_total_ns;
        check "c created" 7 (find_span into "c").sp_total_ns;
        (* merge with disabled on either side is a no-op, not a crash *)
        Profile.merge ~into Profile.disabled;
        Profile.merge ~into:Profile.disabled into;
        check "unchanged" 42 (find_span into "a").sp_total_ns);
    Alcotest.test_case "merge is commutative in the accumulated numbers"
      `Quick (fun () ->
        let mk spec =
          let p, now = fake_profile () in
          List.iter
            (fun (name, ns) -> Profile.with_span p name (fun () -> now := !now + ns))
            spec;
          p
        in
        let numbers p =
          List.map
            (fun (s : Profile.span) -> (s.sp_path, s.sp_count, s.sp_total_ns))
            (Profile.spans p)
          |> List.sort compare
        in
        let ab = mk [ ("x", 1); ("y", 2) ] in
        Profile.merge ~into:ab (mk [ ("y", 3); ("z", 4) ]);
        let ba = mk [ ("y", 3); ("z", 4) ] in
        Profile.merge ~into:ba (mk [ ("x", 1); ("y", 2) ]);
        Alcotest.(check (list (triple string int int)))
          "same accumulated numbers" (numbers ab) (numbers ba));
    Alcotest.test_case "hotspot table sorts by self time" `Quick (fun () ->
        let p, now = fake_profile () in
        Profile.with_span p "cheap" (fun () -> now := !now + 1);
        Profile.with_span p "costly" (fun () -> now := !now + 99);
        let rendered = Fmt.str "%a" (Profile.pp_hotspots ?top:None) p in
        let idx needle =
          let n = String.length needle and len = String.length rendered in
          let rec go i =
            if i + n > len then Alcotest.failf "%s not rendered" needle
            else if String.sub rendered i n = needle then i
            else go (i + 1)
          in
          go 0
        in
        check_b "costly first" true (idx "costly" < idx "cheap"));
    Alcotest.test_case "profile JSON is well-formed" `Quick (fun () ->
        let p, now = fake_profile () in
        Profile.with_span p "a \"quoted\" name" (fun () ->
            now := 3;
            Profile.with_span p "child" (fun () -> now := 5));
        match Json.well_formed (Json.to_string (Profile.to_json p)) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
  ]

(* -- sink -------------------------------------------------------------------- *)

(* Emit one line of every schema type onto [t]. *)
let emit_all_types t =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "c");
  Sink.metric_snapshot t ~source:"test" m;
  Sink.trace_event t ~cat:"engine" ~name:"tag_insert" ~pid:7
    [ ("bytes", Int 4); ("who", Str "a\"b") ];
  Sink.series_point t ~sample:"s0" ~columns:[ "tick"; "tainted" ]
    ~row:[| 64; 12 |];
  let p = Profile.create ~clock:(fun () -> 0) () in
  Profile.with_span p "replay" (fun () -> ());
  Sink.profile_span t ~source:"test" (List.hd (Profile.spans p));
  Sink.job_lifecycle t ~job:"s0" ~worker:0 ~event:"finish" ~verdict:"flagged"
    ~wall_s:0.25 ();
  Sink.graph_flag t ~sample:"s0" ~flag_sites:1 ~nodes:10 ~edges:9
    ~slice_nodes:4 ~slice_origins:1 ~netflow_origin:true

let all_types =
  [
    "metric_snapshot"; "trace_event"; "series_point"; "profile_span";
    "job_lifecycle"; "graph_flag";
  ]

let contains ~needle hay =
  let n = String.length needle and len = String.length hay in
  let rec go i =
    i + n <= len && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let sink_tests =
  [
    Alcotest.test_case "null sink is inert" `Quick (fun () ->
        let t = Sink.null in
        check_b "disabled" false (Sink.enabled t);
        emit_all_types t;
        check "events" 0 (Sink.events t);
        check "dropped" 0 (Sink.dropped t);
        check_s "contents" "" (Sink.contents t));
    Alcotest.test_case "every emitter appends one versioned typed line" `Quick
      (fun () ->
        let t = Sink.create () in
        check_b "enabled" true (Sink.enabled t);
        emit_all_types t;
        check "six lines" 6 (Sink.events t);
        List.iter2
          (fun ty line ->
            (match Json.well_formed line with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s line malformed: %s" ty e);
            check_b (ty ^ " has version") true
              (contains ~needle:(Printf.sprintf {|"v":%d|} Sink.schema_version)
                 line);
            check_b (ty ^ " typed") true
              (contains ~needle:(Printf.sprintf {|"type":"%s"|} ty) line))
          all_types (Sink.lines t));
    Alcotest.test_case "whole stream passes the JSONL checker" `Quick
      (fun () ->
        let t = Sink.create () in
        emit_all_types t;
        match Json.well_formed_lines (Sink.contents t) with
        | Ok n -> check "line count" 6 n
        | Error (line, e) -> Alcotest.failf "line %d: %s" line e);
    Alcotest.test_case "bounded buffering counts drops explicitly" `Quick
      (fun () ->
        let t = Sink.create ~limit:2 () in
        for i = 1 to 5 do
          Sink.job_lifecycle t ~job:(string_of_int i) ~worker:0 ~event:"submit"
            ()
        done;
        check "kept" 2 (Sink.events t);
        check "dropped" 3 (Sink.dropped t);
        check "buffer holds the oldest" 2 (List.length (Sink.lines t)));
    Alcotest.test_case "merge copies rows and adds the drop count" `Quick
      (fun () ->
        let job = Sink.create ~limit:1 ~sample:"s0" ~worker:3 () in
        Sink.trace_event job ~cat:"engine" ~name:"a" ~pid:101 [];
        Sink.trace_event job ~cat:"engine" ~name:"b" ~pid:101 [];
        let into = Sink.create () in
        Sink.job_lifecycle into ~job:"s0" ~worker:3 ~event:"finish" ();
        Sink.merge ~into job;
        check "rows" 2 (Sink.events into);
        check "drops carried over" 1 (Sink.dropped into);
        match Sink.trace_rows into with
        | [ row ] ->
          check_s "sample stamped" "s0" (str_field row "sample");
          check_s "the kept row is the oldest" "a" (str_field row "name");
          check "worker lane" 3 (int_field row "pid");
          check "guest lane" 101 (int_field row "tid")
        | _ -> Alcotest.fail "one trace row expected");
    Alcotest.test_case "every row type renders pinned bytes" `Quick (fun () ->
        let t = Sink.create ~sample:"s\"0\n" ~worker:2 () in
        Sink.set_clock t (fun () -> 42);
        let m = Metrics.create () in
        Metrics.incr (Metrics.counter m "c\"1");
        Metrics.set (Metrics.gauge m "g") 7;
        List.iter (Metrics.observe (Metrics.histogram m "h")) [ 0; 5 ];
        Sink.metric_snapshot t ~source:"src\\" m;
        Sink.trace_event t ~cat:"ca\\t" ~name:"n\"a\nme\001" ~pid:101
          [ ("s", Str "q\"\\\n\x1f\x7f\xff"); ("i", Int (-3)); ("b", Bool false) ];
        Sink.series_point t ~sample:"s0" ~columns:[ "tick"; "tai\"nted" ]
          ~row:[| 64; 12 |];
        Sink.profile_span t ~source:"job"
          {
            Profile.sp_path = "replay/kernel.\"syscall\"";
            sp_name = "kernel.\"syscall\"";
            sp_depth = 1;
            sp_count = 3;
            sp_total_ns = 900;
            sp_self_ns = 400;
            sp_minor_words = 77;
            sp_major_words = 5;
            sp_self_minor_words = 70;
          };
        Sink.job_lifecycle t ~job:"j\"1" ~worker:2 ~event:"submit" ();
        Sink.job_lifecycle t ~job:"j1" ~worker:2 ~event:"finish"
          ~verdict:"fla\"gged" ~wall_s:0.1234567 ();
        Sink.graph_flag t ~sample:"s\n0" ~flag_sites:1 ~nodes:10 ~edges:9
          ~slice_nodes:4 ~slice_origins:1 ~netflow_origin:true;
        Sink.graph_segment t ~run:"r\"1" ~seq:0 ~event:"begin" ~nodes:0 ~edges:0;
        Sink.graph_node t ~run:"r\"1" ~seq:1 ~ord:0 ~ident:"proc|ab|\"x\":0"
          ~kind:"process"
          ~fields:
            [
              ("pid", Int 100); ("name", Str "a \"b\""); ("tainted", Int 0);
              ("netflow", Int 0);
            ]
          ();
        Sink.graph_node t ~run:"r\"1" ~seq:2 ~ord:0
          ~fields:[ ("tainted", Int 4); ("netflow", Int 2) ]
          ();
        Sink.graph_edge t ~run:"r\"1" ~seq:3 ~eord:0 ~src:1 ~dst:0
          ~kind:"inject" ~tick:10 ~last_tick:12 ~count:2 ~bytes:64;
        Alcotest.(check (list string))
          "lines"
          [
            {|{"v":1,"type":"metric_snapshot","source":"src\\","metrics":[{"name":"c\"1","kind":"counter","value":1},{"name":"g","kind":"gauge","value":7},{"name":"h","kind":"histogram","count":2,"sum":5,"buckets":[{"lo":0,"hi":1,"count":1},{"lo":4,"hi":8,"count":1}]}]}|};
            {|{"v":1,"type":"trace_event","sample":"s\"0\n","name":"n\"a\nme\u0001","cat":"ca\\t","ts":42,"pid":2,"tid":101,"args":{"s":"q\"\\\n\u001f|}
            ^ "\x7f\xff" ^ {|","i":-3,"b":false}}|};
            {|{"v":1,"type":"series_point","sample":"s0","tick":64,"tai\"nted":12}|};
            {|{"v":1,"type":"profile_span","source":"job","path":"replay/kernel.\"syscall\"","count":3,"total_ns":900,"self_ns":400,"minor_words":77,"major_words":5}|};
            {|{"v":1,"type":"job_lifecycle","job":"j\"1","worker":2,"event":"submit"}|};
            {|{"v":1,"type":"job_lifecycle","job":"j1","worker":2,"event":"finish","verdict":"fla\"gged","wall_s":0.123457}|};
            {|{"v":1,"type":"graph_flag","sample":"s\n0","flag_sites":1,"nodes":10,"edges":9,"slice_nodes":4,"slice_origins":1,"netflow_origin":true}|};
            {|{"v":1,"type":"graph_segment","run":"r\"1","seq":0,"event":"begin","nodes":0,"edges":0}|};
            {|{"v":1,"type":"graph_node","run":"r\"1","seq":1,"ord":0,"ident":"proc|ab|\"x\":0","kind":"process","pid":100,"name":"a \"b\"","tainted":0,"netflow":0}|};
            {|{"v":1,"type":"graph_node","run":"r\"1","seq":2,"ord":0,"tainted":4,"netflow":2}|};
            {|{"v":1,"type":"graph_edge","run":"r\"1","seq":3,"eord":0,"src":1,"dst":0,"kind":"inject","tick":10,"last_tick":12,"count":2,"bytes":64}|};
          ]
          (Sink.lines t));
    Alcotest.test_case "jsonl checker pinpoints the offending line" `Quick
      (fun () ->
        match Json.well_formed_lines "{}\n{\"a\":1}\nnot json\n{}\n" with
        | Ok _ -> Alcotest.fail "accepted a malformed stream"
        | Error (line, _) -> check "line number" 3 line);
  ]

(* -- row rendering properties (QCheck) ---------------------------------------- *)

(* Bytes a renderer must escape or pass through untouched, often enough
   that most strings hold one. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ '"'; '\\'; '\n'; '\x00'; '\x1f'; '\x7f'; '\x80'; '\xff' ]);
        (1, char_range '\000' '\031');
        (1, char_range '\128' '\255');
        (4, char);
      ])

let gen_string = QCheck.Gen.(string_size ~gen:gen_byte (int_range 0 6))

let gen_int =
  QCheck.Gen.(oneof [ small_signed_int; int; oneofl [ min_int; max_int; 0 ] ])

let gen_scalar : Json.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Json.Int i) gen_int;
        map (fun b -> Json.Bool b) bool;
        map (fun s -> Json.Str s) gen_string;
      ])

let gen_json : Json.t QCheck.Gen.t =
  QCheck.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let scalar = frequency [ (1, return Json.Null); (4, gen_scalar) ] in
           if depth = 0 then scalar
           else
             let kids gen = list_size (int_range 0 4) gen in
             frequency
               [
                 (2, scalar);
                 (1, map (fun vs -> Json.List vs) (kids (self (depth - 1))));
                 ( 1,
                   map (fun kvs -> Json.Obj kvs)
                     (kids (pair gen_string (self (depth - 1)))) );
               ]))

let round_trips =
  QCheck.Test.make ~count:500
    ~name:"Json.parse gives back every float-free value to_string renders"
    (QCheck.make ~print:(fun v -> String.escaped (Json.to_string v)) gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok v)

(* The Chrome export as the parent rendered it, kept as the oracle: parse
   every buffered line back, keep the trace_event rows, and render one
   instant event per row. *)
let parsed_trace_rows sink =
  List.filter_map
    (fun line ->
      match Json.parse line with
      | Ok row when Json.str_mem row "type" = Some "trace_event" -> Some row
      | Ok _ | Error _ -> None)
    (Sink.lines sink)

let reference_chrome sink =
  let event row =
    let str k = Json.to_string (Str (Option.value ~default:"" (Json.str_mem row k))) in
    let int k = Option.value ~default:0 (Json.int_mem row k) in
    Printf.sprintf
      {|{"name":%s,"cat":%s,"ph":"i","s":"g","ts":%d,"pid":%d,"tid":%d,"args":%s}|}
      (str "name") (str "cat") (int "ts") (int "pid") (int "tid")
      (Json.to_string (Option.value ~default:(Json.Obj []) (Json.mem row "args")))
  in
  let rows = parsed_trace_rows sink in
  Printf.sprintf
    {|{"traceEvents":[%s],"displayTimeUnit":"ms","otherData":{"events":%d,"dropped":%d}}|}
    (String.concat "," (List.map event rows))
    (List.length rows) (Sink.dropped sink)

(* One emission: a trace event (name, cat, guest pid, args, clock step)
   or a lifecycle row, which the trace views must skip. *)
type emission =
  | Ev of string * string * int * (string * Json.t) list * int
  | Job of string

let gen_emissions =
  QCheck.Gen.(
    list_size (int_range 0 8)
      (frequency
         [
           ( 4,
             map
               (fun (name, cat, pid, args, dt) -> Ev (name, cat, pid, args, dt))
               (tup5 gen_string gen_string (int_range 0 300)
                  (list_size (int_range 0 3) (pair gen_string gen_scalar))
                  (int_range 0 5)) );
           (1, map (fun job -> Job job) gen_string);
         ]))

let emit_all sink now =
  List.iter (function
    | Ev (name, cat, pid, args, dt) ->
      now := !now + dt;
      Sink.trace_event sink ~cat ~name ~pid args
    | Job job -> Sink.job_lifecycle sink ~job ~worker:1 ~event:"submit" ())

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

(* A job sink under an optional sample stamp, optional worker lanes and a
   small limit, merged into a campaign sink that already holds rows. *)
let sink_views_agree =
  QCheck.Test.make ~count:300
    ~name:"Sink: lines, trace_rows and Chrome agree with the parse-back"
    (QCheck.make
       QCheck.Gen.(
         tup6 (opt gen_string) (opt (int_range 0 3)) (int_range 0 6) gen_emissions
           (int_range 0 12) gen_emissions))
    (fun (sample, worker, limit, job_rows, into_limit, into_rows) ->
      let now = ref 0 in
      let job = Sink.create ~limit ?sample ?worker () in
      Sink.set_clock job (fun () -> !now);
      emit_all job now job_rows;
      let into = Sink.create ~limit:into_limit () in
      Sink.set_clock into (fun () -> !now);
      emit_all into now into_rows;
      let before = Sink.lines into and dropped_before = Sink.dropped into in
      Sink.merge ~into job;
      let room = into_limit - List.length before in
      let agrees sink =
        Sink.to_chrome_json sink = reference_chrome sink
        && Sink.trace_rows sink = parsed_trace_rows sink
        && Sink.trace_count sink = List.length (Sink.trace_rows sink)
        && Sink.contents sink = String.concat "" (List.map (fun l -> l ^ "\n") (Sink.lines sink))
      in
      agrees job && agrees into
      && Sink.lines into = before @ take room (Sink.lines job)
      && Sink.dropped into
         = dropped_before + Sink.dropped job
           + max 0 (List.length (Sink.lines job) - room))

let row_property_tests =
  [
    QCheck_alcotest.to_alcotest round_trips;
    QCheck_alcotest.to_alcotest sink_views_agree;
  ]

(* -- metrics merge properties (QCheck) --------------------------------------- *)

(* A shard is a random bag of operations against a fixed name/kind pool —
   the shape of per-job registries a campaign merges.  Whatever order the
   driver folds shards in, the rendered registry must be byte-identical:
   merge is commutative and associative in every cell. *)
let arb_shard =
  QCheck.Gen.(
    list_size (int_range 0 20)
      (triple (int_range 0 2) (int_range 0 3) (int_range 0 1000)))

let build_shard ops =
  let m = Metrics.create () in
  List.iter
    (fun (kind, idx, v) ->
      match kind with
      | 0 -> Metrics.add (Metrics.counter m (Printf.sprintf "c%d" idx)) v
      | 1 -> Metrics.set (Metrics.gauge m (Printf.sprintf "g%d" idx)) v
      | _ -> Metrics.observe (Metrics.histogram m (Printf.sprintf "h%d" idx)) v)
    ops;
  m

let merge_fingerprint shards =
  let into = Metrics.create () in
  List.iter (fun s -> Metrics.merge ~into (build_shard s)) shards;
  Json.to_string (Metrics.to_json into)

let merge_commutes =
  QCheck.Test.make ~count:200
    ~name:"Metrics.merge: any shard order renders byte-identically"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) arb_shard))
    (fun shards ->
      let reference = merge_fingerprint shards in
      (* reversal exercises commutativity; rotation, associativity of the
         left fold's grouping *)
      let rotate = function [] -> [] | x :: rest -> rest @ [ x ] in
      reference = merge_fingerprint (List.rev shards)
      && reference = merge_fingerprint (rotate shards))

let merge_associates =
  QCheck.Test.make ~count:200
    ~name:"Metrics.merge: pre-merging a subgroup changes nothing"
    (QCheck.make QCheck.Gen.(triple arb_shard arb_shard arb_shard))
    (fun (a, b, c) ->
      let flat = merge_fingerprint [ a; b; c ] in
      (* (a <- b) then c, vs a then (b <- c) *)
      let left =
        let ab = build_shard a in
        Metrics.merge ~into:ab (build_shard b);
        let into = Metrics.create () in
        Metrics.merge ~into ab;
        Metrics.merge ~into (build_shard c);
        Json.to_string (Metrics.to_json into)
      in
      let right =
        let bc = build_shard b in
        Metrics.merge ~into:bc (build_shard c);
        let into = Metrics.create () in
        Metrics.merge ~into (build_shard a);
        Metrics.merge ~into bc;
        Json.to_string (Metrics.to_json into)
      in
      flat = left && flat = right)

let merge_property_tests =
  [
    QCheck_alcotest.to_alcotest merge_commutes;
    QCheck_alcotest.to_alcotest merge_associates;
  ]

(* -- overhead regression ------------------------------------------------------ *)

(* The zero-cost-when-disabled contract: running the full pipeline with
   every observability argument explicitly disabled must be
   indistinguishable — byte-identical report, same tick counts — from
   the defaults.  Each run gets a fresh interner so the comparison is
   exact. *)
let overhead_tests =
  [
    Alcotest.test_case "disabled obs leaves the analysis byte-identical"
      `Slow (fun () ->
        let sample =
          match Faros_corpus.Registry.find "reflective_dll_inject" with
          | Some s -> s
          | None -> Alcotest.fail "missing corpus sample"
        in
        let run f =
          Faros_dift.Provenance.with_store
            (Faros_dift.Provenance.create_store ())
            (fun () ->
              let outcome = f sample.scenario in
              let json =
                Json.to_string
                  (Core.Report.to_json
                     ~store:outcome.Core.Analysis.faros.engine.store
                     ~name_of_asid:
                       (Core.Faros_plugin.name_of_asid outcome.faros.kernel)
                     outcome.report)
              in
              (json, outcome.replay.replay_ticks, outcome.replay.replay_syscalls))
        in
        let j_default, ticks_default, sys_default =
          run (fun scn -> Faros_corpus.Scenario.analyze scn)
        in
        let j_disabled, ticks_disabled, sys_disabled =
          run (fun scn ->
              Faros_corpus.Scenario.analyze ~profile:Profile.disabled
                ~sink:Sink.null scn)
        in
        check_s "report JSON byte-identical" j_default j_disabled;
        check "ticks" ticks_default ticks_disabled;
        check "syscalls" sys_default sys_disabled);
    Alcotest.test_case "profiling changes no analysis output" `Slow (fun () ->
        let sample =
          match Faros_corpus.Registry.find "process_hollowing" with
          | Some s -> s
          | None -> Alcotest.fail "missing corpus sample"
        in
        let run f =
          Faros_dift.Provenance.with_store
            (Faros_dift.Provenance.create_store ())
            (fun () ->
              let outcome = f sample.scenario in
              ( Core.Report.summary outcome.Core.Analysis.report,
                outcome.replay.replay_ticks ))
        in
        let plain = run (fun scn -> Faros_corpus.Scenario.analyze scn) in
        let profile = Profile.create () in
        let sink = Sink.create () in
        let profiled =
          run (fun scn -> Faros_corpus.Scenario.analyze ~profile ~sink scn)
        in
        Alcotest.(check (pair string int))
          "verdict and ticks unchanged" plain profiled;
        (* and the observability actually observed something *)
        check_b "spans recorded" true (Profile.spans profile <> []);
        check_b "covered time positive" true (Profile.total_ns profile > 0));
  ]

(* -- replay-level telemetry -------------------------------------------------- *)

let sorted_ascending xs = List.sort compare xs = xs

let telemetry_tests =
  [
    Alcotest.test_case "sampled series is consistent with final engine state"
      `Slow (fun () ->
        let sample =
          match Faros_corpus.Registry.find "reflective_dll_inject" with
          | Some s -> s
          | None -> Alcotest.fail "missing corpus sample"
        in
        let telemetry = Core.Telemetry.create () in
        let sink = Sink.create () in
        let outcome =
          Faros_corpus.Scenario.analyze ~telemetry ~sink sample.scenario
        in
        let series = telemetry in
        check_b "sampled at least twice" true (Series.total series >= 2);
        (* ticks are strictly increasing; a replay's taint only grows *)
        let ticks = Series.column series "tick" in
        check_b "ticks ascend" true (sorted_ascending ticks);
        let tainted = Series.column series "tainted_bytes" in
        check_b "tainted bytes monotone" true (sorted_ascending tainted);
        (* the forced final sample equals the end-of-replay state *)
        let final = Option.get (Series.last series) in
        let col name =
          let rec idx i = function
            | [] -> Alcotest.failf "no column %s" name
            | c :: _ when c = name -> final.(i)
            | _ :: rest -> idx (i + 1) rest
          in
          idx 0 (Series.columns series)
        in
        check "final tainted bytes" (Faros_dift.Shadow.tainted_bytes
          outcome.faros.engine.shadow)
          (col "tainted_bytes");
        check "final tick" outcome.replay.replay_ticks (col "tick");
        check "final instrs"
          (Faros_dift.Engine.instrs_processed outcome.faros.engine)
          (col "instrs");
        (* the sink saw the events the acceptance demands, one
           trace_event row each *)
        let rows = Sink.trace_rows sink in
        check "every line is a trace row" (Sink.events sink) (List.length rows);
        let has cat name =
          List.exists
            (fun row -> str_field row "cat" = cat && str_field row "name" = name)
            rows
        in
        check_b "tag_insert events" true (has "engine" "tag_insert");
        check_b "page_alloc events" true (has "shadow" "page_alloc");
        check_b "confluence_check events" true
          (has "detector" "confluence_check");
        check_b "flag events" true (has "detector" "flag");
        check_b "syscall events" true
          (List.exists (fun row -> str_field row "cat" = "syscall") rows);
        (* event timestamps are valid replay ticks *)
        check_b "timestamps within replay" true
          (List.for_all
             (fun row ->
               let ts = int_field row "ts" in
               ts >= 0 && ts <= outcome.replay.replay_ticks)
             rows));
    Alcotest.test_case "disabled sinks leave no observable trace" `Slow
      (fun () ->
        let sample =
          match Faros_corpus.Registry.find "reflective_dll_inject" with
          | Some s -> s
          | None -> Alcotest.fail "missing corpus sample"
        in
        (* default analyze: null sink everywhere; the kernel's sink stays
           disabled and nothing is buffered anywhere *)
        let outcome = Faros_corpus.Scenario.analyze sample.scenario in
        check_b "plugin sink disabled" false
          (Sink.enabled outcome.faros.sink);
        check "plugin sink empty" 0 (Sink.events outcome.faros.sink);
        check_b "still flags" true (Core.Report.flagged outcome.report));
  ]

let () =
  Alcotest.run "faros_obs"
    [
      ("metrics", metrics_tests);
      ("json", json_tests);
      ("series", series_tests);
      ("trace", trace_tests);
      ("profile", profile_tests);
      ("sink", sink_tests);
      ("row-properties", row_property_tests);
      ("merge-properties", merge_property_tests);
      ("overhead", overhead_tests);
      ("telemetry", telemetry_tests);
    ]

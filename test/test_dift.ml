(* Tests for the DIFT library: tags, the tag store, provenance lists
   (with qcheck properties), shadow state, Table I propagation, and the
   engine's per-instruction and per-event semantics. *)

open Faros_dift

let check = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* Shorthand: intern a literal tag list as a provenance value. *)
let pl = Provenance.of_list
let ext paddr len = { Faros_vm.Extent.paddr; len }

(* -- tags ------------------------------------------------------------------ *)

let arb_tag =
  QCheck.Gen.(
    let* i = int_range 0 0xFFFF in
    oneofl [ Tag.Netflow i; Tag.Process i; Tag.File i; Tag.Export_table i ])

let tag_roundtrip =
  QCheck.Test.make ~count:300 ~name:"prov_tag 3-byte encode/decode roundtrip"
    (QCheck.make arb_tag) (fun t ->
      let s = Tag.encode t in
      String.length s = 3 && Tag.decode s = t)

let tag_tests =
  [
    Alcotest.test_case "type bytes per Fig. 6" `Quick (fun () ->
        check "netflow" 1 (Char.code (Tag.encode (Tag.Netflow 0)).[0]);
        check "file" 2 (Char.code (Tag.encode (Tag.File 0)).[0]);
        check "process" 3 (Char.code (Tag.encode (Tag.Process 0)).[0]);
        check "export" 4 (Char.code (Tag.encode (Tag.Export_table 0)).[0]));
    Alcotest.test_case "index encodes little-endian in bytes 2-3" `Quick
      (fun () ->
        let s = Tag.encode (Tag.Process 0xBEEF) in
        check "lo" 0xEF (Char.code s.[1]);
        check "hi" 0xBE (Char.code s.[2]));
    Alcotest.test_case "oversized index rejected" `Quick (fun () ->
        match Tag.encode (Tag.File 0x10000) with
        | exception Tag.Bad_prov_tag _ -> ()
        | _ -> Alcotest.fail "expected Bad_prov_tag");
    Alcotest.test_case "bad decode rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Tag.decode s with
            | exception Tag.Bad_prov_tag _ -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ ""; "\x01\x00"; "\x07\x00\x00"; "\x00\x00\x00\x00" ]);
    QCheck_alcotest.to_alcotest tag_roundtrip;
  ]

(* -- tag store -------------------------------------------------------------- *)

let flow a b =
  { Faros_os.Types.src_ip = a; src_port = 1; dst_ip = b; dst_port = 2 }

(* One tag kind through the store's API: the tag for payload [k], whether
   an index reverses to [k]'s payload, and the kind's count. *)
type kind = {
  k_name : string;
  k_ty : Tag.ty;
  k_intern : Tag_store.t -> int -> Tag.t;
  k_reverses_to : Tag_store.t -> int -> int -> bool;
  k_count : Tag_store.t -> int;
}

let kinds =
  [
    {
      k_name = "netflow";
      k_ty = Tag.Ty_netflow;
      k_intern = (fun s k -> Tag_store.netflow s (flow k 0));
      k_reverses_to = (fun s i k -> Tag_store.netflow_of s i = Some (flow k 0));
      k_count = Tag_store.netflow_count;
    };
    {
      k_name = "process";
      k_ty = Tag.Ty_process;
      k_intern = Tag_store.process;
      k_reverses_to = (fun s i k -> Tag_store.cr3_of s i = Some k);
      k_count = Tag_store.process_count;
    };
    {
      k_name = "file";
      k_ty = Tag.Ty_file;
      k_intern = (fun s k -> Tag_store.file s ~name:"f" ~version:k);
      k_reverses_to =
        (fun s i k ->
          Tag_store.file_of s i = Some { Tag_store.file_name = "f"; file_version = k });
      k_count = Tag_store.file_count;
    };
    {
      k_name = "export";
      k_ty = Tag.Ty_export;
      k_intern = (fun s k -> Tag_store.export s ~name:(string_of_int k));
      k_reverses_to = (fun s i k -> Tag_store.export_of s i = Some (string_of_int k));
      k_count = Tag_store.export_count;
    };
  ]

let store_tests =
  [
    Alcotest.test_case "interning is stable" `Quick (fun () ->
        let s = Tag_store.create () in
        let t1 = Tag_store.netflow s (flow 1 2) in
        let t2 = Tag_store.netflow s (flow 1 2) in
        let t3 = Tag_store.netflow s (flow 3 4) in
        check_b "same" true (Tag.equal t1 t2);
        check_b "different" false (Tag.equal t1 t3);
        check "count" 2 (Tag_store.netflow_count s));
    Alcotest.test_case "reverse lookup returns the payload" `Quick (fun () ->
        let s = Tag_store.create () in
        (match Tag_store.process s 42 with
        | Tag.Process i ->
          Alcotest.(check (option int)) "cr3" (Some 42) (Tag_store.cr3_of s i)
        | _ -> Alcotest.fail "expected process tag");
        match Tag_store.file s ~name:"f" ~version:3 with
        | Tag.File i -> (
          match Tag_store.file_of s i with
          | Some { file_name; file_version } ->
            Alcotest.(check string) "name" "f" file_name;
            check "version" 3 file_version
          | None -> Alcotest.fail "missing file")
        | _ -> Alcotest.fail "expected file tag");
    Alcotest.test_case "file versions intern separately" `Quick (fun () ->
        let s = Tag_store.create () in
        let a = Tag_store.file s ~name:"f" ~version:1 in
        let b = Tag_store.file s ~name:"f" ~version:2 in
        check_b "distinct" false (Tag.equal a b);
        check "two entries" 2 (Tag_store.file_count s));
    Alcotest.test_case "overflow raises at intern time, at 65536 entries" `Quick
      (fun () ->
        (* indices 0..0xFFFF fit the 16-bit wire format; the 65537th
           distinct payload must be refused by the store itself, naming
           the culprit, not by Tag.encode much later *)
        let s = Tag_store.create () in
        for v = 0 to 0xFFFF do
          ignore (Tag_store.file s ~name:"f" ~version:v)
        done;
        check "full" 0x10000 (Tag_store.file_count s);
        (match Tag_store.file s ~name:"f" ~version:0 with
        | Tag.File 0 -> () (* re-interning an existing payload still works *)
        | _ -> Alcotest.fail "expected File 0");
        match Tag_store.file s ~name:"f" ~version:0x10000 with
        | exception Tag_store.Overflow msg ->
          check_b "names the store" true
            (String.length msg >= 4 && String.sub msg 0 4 = "file")
        | _ -> Alcotest.fail "expected Overflow");
    Alcotest.test_case "each tag kind interns, reverses, counts and overflows alone"
      `Quick (fun () ->
        (* All four kinds share one store: filling one to its 16-bit cap
           must leave the other three's counts where they were. *)
        let s = Tag_store.create () in
        List.iter
          (fun kd ->
            let name what = kd.k_name ^ ": " ^ what in
            let others () =
              List.filter_map
                (fun o -> if o.k_name = kd.k_name then None else Some (o.k_count s))
                kinds
            in
            let before = others () in
            let t = kd.k_intern s 7 in
            check_b (name "type") true (Tag.ty t = kd.k_ty);
            check_b (name "idempotent") true (Tag.equal t (kd.k_intern s 7));
            check_b (name "reverse") true (kd.k_reverses_to s (Tag.index t) 7);
            check (name "count") 1 (kd.k_count s);
            for k = 0 to 0xFFFF do
              ignore (kd.k_intern s k)
            done;
            check (name "full") 0x10000 (kd.k_count s);
            Alcotest.(check (list int)) (name "other counts") before (others ());
            (match kd.k_intern s 0x10000 with
            | exception Tag_store.Overflow msg ->
              check_b (name "overflow names its store") true
                (String.starts_with ~prefix:(kd.k_name ^ " tag store") msg)
            | _ -> Alcotest.fail (name "expected Overflow"));
            check (name "count after overflow") 0x10000 (kd.k_count s))
          kinds);
  ]

(* -- provenance ------------------------------------------------------------- *)

let arb_prov = QCheck.Gen.(list_size (int_range 0 10) arb_tag)

let prov_union_keeps_membership =
  QCheck.Test.make ~count:300 ~name:"union contains both operands' tags"
    (QCheck.make QCheck.Gen.(pair arb_prov arb_prov))
    (fun (a, b) ->
      let u = Provenance.union (pl a) (pl b) in
      List.for_all (fun t -> Provenance.mem t u) a
      && List.for_all (fun t -> Provenance.mem t u) b)

let prov_union_no_dups =
  QCheck.Test.make ~count:300 ~name:"union of duplicate-free lists is duplicate-free"
    (QCheck.make QCheck.Gen.(pair arb_prov arb_prov))
    (fun (a, b) ->
      (* provenance lists are only ever built by prepend/union, so they are
         duplicate free; mirror that invariant in the inputs *)
      let dedup l = List.sort_uniq compare l in
      let u = Provenance.union (pl (dedup a)) (pl (dedup b)) in
      let l = Provenance.to_list u in
      List.length l = List.length (List.sort_uniq compare l))

let prov_prepend_idempotent_head =
  QCheck.Test.make ~count:300 ~name:"prepend of the current head is a no-op"
    (QCheck.make QCheck.Gen.(pair arb_tag arb_prov))
    (fun (t, p) ->
      let p1 = Provenance.prepend t (pl p) in
      Provenance.prepend t p1 == p1)

let prov_capped =
  QCheck.Test.make ~count:100 ~name:"length is capped"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) arb_tag))
    (fun big ->
      Provenance.length (Provenance.union Provenance.empty (pl big))
      <= Provenance.max_length)

(* The interning invariant: structural equality is physical equality, so
   the same tag list built twice is the very same node with the same id. *)
let prov_interned_unique =
  QCheck.Test.make ~count:300 ~name:"equal lists intern to the same node"
    (QCheck.make arb_prov)
    (fun l ->
      let a = pl l and b = pl l in
      a == b && Provenance.equal a b
      && Provenance.id a = Provenance.id b
      && Provenance.to_list a = Provenance.to_list b)

(* Union is not associative on *order* (the cap can differ), but type
   membership — what the detector reads — must be. *)
let prov_union_type_assoc =
  QCheck.Test.make ~count:300
    ~name:"union type-membership is associative"
    (QCheck.make QCheck.Gen.(triple arb_prov arb_prov arb_prov))
    (fun (a, b, c) ->
      let a = pl a and b = pl b and c = pl c in
      let l = Provenance.union (Provenance.union a b) c in
      let r = Provenance.union a (Provenance.union b c) in
      List.for_all
        (fun ty -> Provenance.has_type ty l = Provenance.has_type ty r)
        [ Tag.Ty_netflow; Tag.Ty_process; Tag.Ty_file; Tag.Ty_export ])

(* Order preservation + cap: union is a's tags in order, then b's missing
   tags in order, truncated to the newest max_length entries. *)
let prov_union_order =
  QCheck.Test.make ~count:300
    ~name:"union preserves order and caps keeping newest-first"
    (QCheck.make QCheck.Gen.(pair arb_prov arb_prov))
    (fun (a, b) ->
      let pa = pl a and pb = pl b in
      let la = Provenance.to_list pa in
      let extra =
        List.filter (fun t -> not (Provenance.mem t pa)) (Provenance.to_list pb)
      in
      let expect =
        List.filteri (fun i _ -> i < Provenance.max_length) (la @ extra)
      in
      Provenance.to_list (Provenance.union pa pb) = expect)

let prov_tests =
  [
    Alcotest.test_case "prepend puts newest first" `Quick (fun () ->
        let p = Provenance.prepend (Tag.Process 1) (pl [ Tag.Netflow 0 ]) in
        check_b "head" true (List.hd (Provenance.to_list p) = Tag.Process 1);
        check "len" 2 (Provenance.length p));
    Alcotest.test_case "prepend of a deeper tag moves it to the front" `Quick
      (fun () ->
        (* present anywhere — not just at the head — must not duplicate *)
        let p = pl [ Tag.Process 2; Tag.Process 1; Tag.Netflow 0 ] in
        let p' = Provenance.prepend (Tag.Process 1) p in
        Alcotest.(check (list int))
          "moved to front, not duplicated" [ 1; 2 ]
          (Provenance.process_indices p');
        check "len" 3 (Provenance.length p');
        check_b "origin kept" true (Provenance.has_netflow p'));
    Alcotest.test_case
      "alternating touches do not evict the origin tag (regression)" `Quick
      (fun () ->
        (* Two processes ping-ponging over one byte used to append a tag per
           touch — the head-only dedupe never fired — until the cap evicted
           the netflow origin.  With dedupe-anywhere the history stays at
           three entries and the origin survives any number of touches. *)
        let p = ref (pl [ Tag.Netflow 0 ]) in
        for i = 1 to 100 do
          p := Provenance.prepend (Tag.Process (i mod 2)) !p
        done;
        check "length stays bounded" 3 (Provenance.length !p);
        check_b "origin netflow survives" true (Provenance.has_netflow !p);
        Alcotest.(check (list int))
          "both processes, newest first" [ 0; 1 ]
          (Provenance.process_indices !p));
    Alcotest.test_case "union is order preserving" `Quick (fun () ->
        let u =
          Provenance.union (pl [ Tag.Netflow 0 ]) (pl [ Tag.File 1; Tag.Netflow 0 ])
        in
        Alcotest.(check bool)
          "order" true
          (Provenance.to_list u = [ Tag.Netflow 0; Tag.File 1 ]));
    Alcotest.test_case "type queries" `Quick (fun () ->
        let p = pl [ Tag.Process 1; Tag.Netflow 0; Tag.Export_table 0 ] in
        check_b "nf" true (Provenance.has_netflow p);
        check_b "export" true (Provenance.has_export p);
        check_b "file" false (Provenance.has_file p);
        check "confluence" 3 (Provenance.confluence p));
    Alcotest.test_case "process_indices dedupes, preserves order" `Quick
      (fun () ->
        let p = pl [ Tag.Process 2; Tag.Netflow 0; Tag.Process 1; Tag.Process 2 ] in
        Alcotest.(check (list int)) "indices" [ 2; 1 ] (Provenance.process_indices p);
        check "distinct count cached" 2 (Provenance.distinct_process_count p));
    Alcotest.test_case "empty provenance" `Quick (fun () ->
        check_b "empty" true (Provenance.is_empty Provenance.empty);
        check "confluence" 0 (Provenance.confluence Provenance.empty);
        check "empty is id 0" 0 (Provenance.id Provenance.empty));
    QCheck_alcotest.to_alcotest prov_union_keeps_membership;
    QCheck_alcotest.to_alcotest prov_union_no_dups;
    QCheck_alcotest.to_alcotest prov_prepend_idempotent_head;
    QCheck_alcotest.to_alcotest prov_capped;
    QCheck_alcotest.to_alcotest prov_interned_unique;
    QCheck_alcotest.to_alcotest prov_union_type_assoc;
    QCheck_alcotest.to_alcotest prov_union_order;
  ]

(* -- shadow ----------------------------------------------------------------- *)

let shadow_tests =
  [
    Alcotest.test_case "absent means empty; empty removes" `Quick (fun () ->
        let s = Shadow.create () in
        check_b "empty" true (Provenance.is_empty (Shadow.get_mem s 5));
        Shadow.set_mem s 5 (pl [ Tag.Netflow 0 ]);
        check "one" 1 (Shadow.tainted_bytes s);
        Shadow.set_mem s 5 Provenance.empty;
        check "removed" 0 (Shadow.tainted_bytes s));
    Alcotest.test_case "registers keyed by asid" `Quick (fun () ->
        let s = Shadow.create () in
        Shadow.set_reg s ~asid:1 3 (pl [ Tag.Netflow 0 ]);
        check_b "other asid clean" true
          (Provenance.is_empty (Shadow.get_reg s ~asid:2 3));
        check_b "same asid tainted" false
          (Provenance.is_empty (Shadow.get_reg s ~asid:1 3)));
    Alcotest.test_case "range union" `Quick (fun () ->
        let s = Shadow.create () in
        Shadow.set_mem s 0 (pl [ Tag.Netflow 0 ]);
        Shadow.set_mem s 2 (pl [ Tag.File 1 ]);
        let p = Shadow.get_mem_range s 0 4 in
        check "both" 2 (Provenance.length p));
    Alcotest.test_case "generation moves on a mutation, not on a same-id write" `Quick
      (fun () ->
        (* The fast path revalidates its cached verdicts when the counter
           moves, so a converged loop rewriting the ids a byte already has
           must leave it still. *)
        let s = Shadow.create () in
        let p = pl [ Tag.Netflow 0 ] and q = pl [ Tag.File 1 ] in
        let moved what f =
          let g = Shadow.generation s in
          f ();
          check_b what true (Shadow.generation s > g)
        and still what f =
          let g = Shadow.generation s in
          f ();
          check what g (Shadow.generation s)
        in
        still "clearing an untracked byte" (fun () -> Shadow.set_mem s 5 Provenance.empty);
        moved "tainting a byte" (fun () -> Shadow.set_mem s 5 p);
        still "the same id again" (fun () -> Shadow.set_mem s 5 p);
        moved "re-tagging" (fun () -> Shadow.set_mem s 5 q);
        moved "clearing" (fun () -> Shadow.set_mem s 5 Provenance.empty);
        moved "a range fill" (fun () -> Shadow.set_mem_range s 8 4 p);
        still "the same range again" (fun () -> Shadow.set_mem_range s 8 4 p);
        moved "a register tainted" (fun () -> Shadow.set_reg s ~asid:1 0 p);
        moved "a register cleared" (fun () -> Shadow.set_reg s ~asid:1 0 Provenance.empty);
        moved "flags tainted" (fun () -> Shadow.set_flags s ~asid:1 p);
        check_b "flags read back" true (Provenance.equal (Shadow.get_flags s ~asid:1) p);
        moved "flags cleared" (fun () -> Shadow.set_flags s ~asid:1 Provenance.empty);
        moved "an explicit bump" (fun () -> Shadow.bump_generation s));
    Alcotest.test_case "range ops round-trip across a page boundary" `Quick
      (fun () ->
        let s = Shadow.create () in
        let prov = pl [ Tag.Netflow 0; Tag.Process 1 ] in
        (* 12 bytes straddling the first page boundary: 4090..4101 *)
        let base = Shadow.page_size - 6 in
        Shadow.set_mem_range s base 12 prov;
        check "tainted count" 12 (Shadow.tainted_bytes s);
        for k = 0 to 11 do
          check_b
            (Printf.sprintf "byte %d" k)
            true
            (Provenance.equal (Shadow.get_mem s (base + k)) prov)
        done;
        check_b "byte before clean" true
          (Provenance.is_empty (Shadow.get_mem s (base - 1)));
        check_b "byte after clean" true
          (Provenance.is_empty (Shadow.get_mem s (base + 12)));
        check_b "range read unions across the boundary" true
          (Provenance.equal (Shadow.get_mem_range s base 12) prov);
        (* clearing the straddling range drops both pages' slots *)
        Shadow.set_mem_range s base 12 Provenance.empty;
        check "cleared" 0 (Shadow.tainted_bytes s));
    Alcotest.test_case "iter_mem visits exactly the tainted bytes" `Quick
      (fun () ->
        let s = Shadow.create () in
        let prov = pl [ Tag.File 3 ] in
        List.iter
          (fun a -> Shadow.set_mem s a prov)
          [ 0; Shadow.page_size - 1; Shadow.page_size; 3 * Shadow.page_size + 7 ];
        let seen = ref [] in
        Shadow.iter_mem s (fun paddr p ->
            check_b "prov" true (Provenance.equal p prov);
            seen := paddr :: !seen);
        Alcotest.(check (list int))
          "addresses"
          [ 0; Shadow.page_size - 1; Shadow.page_size; 3 * Shadow.page_size + 7 ]
          (List.sort compare !seen);
        check "count matches" 4 (Shadow.tainted_bytes s));
    Alcotest.test_case "a page past the directory's end: pages and ascending iter_mem"
      `Quick
      (fun () ->
        let s = Shadow.create () in
        let low = 7 and high = (1000 * Shadow.page_size) + 2 in
        Shadow.set_mem s low (pl [ Tag.File 1 ]);
        (* page 1000 lies past the directory the low page made; the high
           page's bytes are written in descending order *)
        Shadow.set_mem s (high + 7) (pl [ Tag.Netflow 0 ]);
        Shadow.set_mem s high (pl [ Tag.Netflow 0 ]);
        check "pages" 2 (Shadow.pages s);
        let seen () =
          let acc = ref [] in
          Shadow.iter_mem s (fun paddr _ -> acc := paddr :: !acc);
          List.rev !acc
        in
        Alcotest.(check (list int)) "ascending paddr" [ low; high; high + 7 ] (seen ());
        check_b "low page kept" true
          (Provenance.equal (Shadow.get_mem s low) (pl [ Tag.File 1 ])));
    Alcotest.test_case "ids wider than 16 bits round-trip" `Quick (fun () ->
        (* Ids count a store's interned lists, which the 0xFFFF cap on tag
           indices does not bound: 70,000 singletons, every tag index in
           16 bits, take ids up to 70,000 in a fresh store. *)
        Provenance.with_store (Provenance.create_store ()) (fun () ->
            let provs =
              Array.init 70_000 (fun i ->
                  pl [ (if i < 60_000 then Tag.Netflow i else Tag.Process (i - 60_000)) ])
            in
            (* [wide k] has id 70,000 - k *)
            let wide k = provs.(Array.length provs - 1 - k) in
            let s = Shadow.create () in
            (* set_mem: 16 bytes on page 0, each its own list, from id
               0x10000 up *)
            let singles = List.init 16 (fun k -> (k, wide (4_464 - k))) in
            check "first id" 0x10000 (Provenance.id (snd (List.hd singles)));
            List.iter (fun (a, p) -> Shadow.set_mem s a p) singles;
            (* set_mem_range onto fresh pages 1 and 2 (the bulk fill) *)
            let fresh = ((2 * Shadow.page_size) - 20, 40, wide 0) in
            (* set_mem_range onto page 0, already live (the slot path) *)
            let live = (100, 40, wide 1) in
            List.iter (fun (a, w, p) -> Shadow.set_mem_range s a w p) [ fresh; live ];
            let expected =
              singles
              @ List.concat_map
                  (fun (a, w, p) -> List.init w (fun k -> (a + k, p)))
                  [ live; fresh ]
            in
            check "tainted bytes" (List.length expected) (Shadow.tainted_bytes s);
            List.iter
              (fun (a, p) ->
                let name = Printf.sprintf "byte 0x%x" a in
                check_b name true (Provenance.id p >= 0x10000);
                check_b name true (Provenance.equal (Shadow.get_mem s a) p);
                check_b name true (Provenance.equal (Shadow.get_mem_range s a 1) p);
                check_b name true (Shadow.byte_tainted s a);
                check_b name true (Shadow.range_tainted s a 1);
                let at = a land (Shadow.page_size - 1) in
                let run_id = ref 0 in
                Shadow.iter_runs s a (fun off len id ->
                    if off <= at && at < off + len then run_id := id);
                check name (Provenance.id p) !run_id)
              expected;
            List.iter
              (fun (a, w, p) ->
                check_b "range" true
                  (Provenance.equal (Shadow.get_mem_range s a w) p);
                check_b "range tainted" true (Shadow.range_tainted s a w))
              [ fresh; live ];
            check_b "set_mem bytes union" true
              (Provenance.equal (Shadow.get_mem_range s 0 16)
                 (List.fold_left
                    (fun acc (_, p) -> Provenance.union acc p)
                    Provenance.empty singles));
            let seen = ref [] in
            Shadow.iter_mem s (fun a p -> seen := (a, Provenance.id p) :: !seen);
            Alcotest.(check (list (pair int int)))
              "iter_mem"
              (List.map (fun (a, p) -> (a, Provenance.id p)) expected)
              (List.rev !seen)));
    Alcotest.test_case "a tainted page costs at most 2,100 words of host memory"
      `Quick (fun () ->
        (* 4,096 4-byte slots are one 2,050-word block (16 KiB, a padding
           word and a header); with the page record and its share of the
           directory a page reaches 2,054 words.  Reachability counts no
           GC state. *)
        Provenance.with_store (Provenance.create_store ()) (fun () ->
            let p = pl [ Tag.Netflow 0 ] in
            let s = Shadow.create () in
            let before = Obj.reachable_words (Obj.repr s) in
            for pno = 0 to 63 do
              Shadow.set_mem s (pno * Shadow.page_size) p
            done;
            check "pages" 64 (Shadow.pages s);
            let growth = Obj.reachable_words (Obj.repr s) - before in
            if growth > 64 * 2_100 then
              Alcotest.failf "64 pages grew the shadow by %d words" growth));
  ]

(* Random round-trips: writes through set_mem_range at arbitrary offsets
   and widths (often straddling pages) must read back byte-exact. *)
let shadow_range_roundtrip =
  QCheck.Test.make ~count:200 ~name:"set_mem_range/get_mem round-trip"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 (5 * 4096)) (int_range 1 64)
           (list_size (int_range 1 4) arb_tag)))
    (fun (base, width, tags) ->
      let s = Shadow.create () in
      let prov = pl tags in
      Shadow.set_mem_range s base width prov;
      Shadow.tainted_bytes s = width
      && (let ok = ref true in
          for k = 0 to width - 1 do
            if not (Provenance.equal (Shadow.get_mem s (base + k)) prov) then
              ok := false
          done;
          !ok)
      && Provenance.equal (Shadow.get_mem_range s base width) prov
      &&
      (Shadow.set_mem_range s base width Provenance.empty;
       Shadow.tainted_bytes s = 0))

(* The per-page live counters feed the fast path's O(1) page probes, so
   they must stay exact on every mutation path — single-byte sets, range
   sets (including the bulk fill of a just-materialized page), overwrites
   and clears.  Cross-checked against a brute-force page scan. *)
let page_counter_exact =
  QCheck.Test.make ~count:100 ~name:"page_tainted_bytes matches a brute-force scan"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 20)
           (triple
              (int_range 0 ((3 * 4096) - 65))
              (int_range 1 64)
              (option (list_size (int_range 1 3) arb_tag)))))
    (fun writes ->
      let s = Shadow.create () in
      List.iter
        (fun (base, width, tags) ->
          let prov =
            match tags with None -> Provenance.empty | Some ts -> pl ts
          in
          if width = 1 then Shadow.set_mem s base prov
          else Shadow.set_mem_range s base width prov)
        writes;
      let ok = ref true in
      for pno = 0 to 3 do
        let base = pno * Shadow.page_size in
        let brute = ref 0 in
        for off = 0 to Shadow.page_size - 1 do
          if not (Provenance.is_empty (Shadow.get_mem s (base + off))) then
            incr brute
        done;
        if Shadow.page_tainted_bytes s base <> !brute then ok := false;
        if Shadow.page_tainted s base <> (!brute > 0) then ok := false
      done;
      !ok)

(* [iter_runs] against a per-byte walk.  Writes over pages 0-3 of three
   lists or the empty one, shaped to cross page boundaries, to end on a
   page's last byte, to change the id inside a tainted stretch and to
   clear what they wrote; page 4 is always tainted, then emptied, so its
   live count falls back to 0 on a materialized page, and page 5 is never
   written. *)
let iter_runs_exact =
  let ps = Shadow.page_size in
  let write =
    QCheck.Gen.(
      let* p = int_bound 3 and* pno = int_range 1 3 and* w = int_range 1 48 in
      oneof
        [
          (* across the boundary into page [pno] *)
          map (fun k -> [ ((pno * ps) - k, w + k, p) ]) (int_range 1 48);
          (* ending on page [pno - 1]'s last byte *)
          return [ ((pno * ps) - w, w, p) ];
          (* two adjacent lists: the id changes mid-stretch *)
          map
            (fun (off, q) -> [ (off, w, p); (off + w, w, q) ])
            (pair (int_bound ((4 * ps) - 97)) (int_bound 3));
          map (fun off -> [ (off, w, p) ]) (int_bound ((4 * ps) - 49));
        ])
  in
  let print ws =
    String.concat "; "
      (List.map
         (fun (a, w, p) -> Printf.sprintf "0x%x+%d<-%d" a w p)
         (List.concat ws))
  in
  QCheck.Test.make ~count:200 ~name:"iter_runs reports the runs of a per-byte walk"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 12) write))
    (fun ws ->
      let provs =
        [|
          pl [ Tag.Netflow 0 ]; pl [ Tag.File 1 ]; pl [ Tag.Netflow 0; Tag.Process 2 ];
          Provenance.empty;
        |]
      in
      let s = Shadow.create () in
      let set (a, w, p) = Shadow.set_mem_range s a w provs.(p) in
      List.iter (List.iter set) ws;
      set ((4 * ps) + 100, 20, 0);
      set ((4 * ps) + 100, 20, 3);
      List.for_all
        (fun pno ->
          let base = pno * ps in
          let walked = ref [] in
          for off = ps - 1 downto 0 do
            let id = Provenance.id (Shadow.get_mem s (base + off)) in
            match !walked with
            | (o, n, i) :: rest when id <> 0 && i = id && o = off + 1 ->
              walked := (off, n + 1, id) :: rest
            | runs -> if id <> 0 then walked := (off, 1, id) :: runs
          done;
          let runs = ref [] in
          Shadow.iter_runs s (base + 5) (fun off n id -> runs := (off, n, id) :: !runs);
          List.rev !runs = !walked)
        [ 0; 1; 2; 3; 4; 5 ])

let shadow_prop_tests =
  [
    QCheck_alcotest.to_alcotest shadow_range_roundtrip;
    QCheck_alcotest.to_alcotest page_counter_exact;
    QCheck_alcotest.to_alcotest iter_runs_exact;
  ]

(* -- engine ------------------------------------------------------------------ *)

(* A little harness: machine + space + program, an engine with [policy], and
   helpers to taint guest memory and read taint back. *)
type harness = {
  machine : Faros_vm.Machine.t;
  space : Faros_vm.Mmu.space;
  cpu : Faros_vm.Cpu.t;
  engine : Engine.t;
}

let harness ?(policy = Policy.faros_default) items =
  let machine = Faros_vm.Machine.create () in
  let space = Faros_vm.Mmu.create_space machine.mmu ~name:"guest" in
  Faros_vm.Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  Faros_vm.Mmu.map machine.mmu space ~vaddr:0x7F000 ~pages:2;
  let prog = Faros_vm.Asm.assemble ~origin:0x1000 items in
  Faros_vm.Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
  let cpu = Faros_vm.Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0x80000 in
  let engine = Engine.create ~policy () in
  Faros_vm.Machine.add_exec_hook machine (fun c e -> Engine.on_exec engine c e);
  { machine; space; cpu; engine }

let run h =
  let rec go n =
    if n > 10_000 then Alcotest.fail "no halt"
    else
      match Faros_vm.Machine.step h.machine h.cpu with
      | Ok _ when h.cpu.halted -> ()
      | Ok _ -> go (n + 1)
      | Error f -> Alcotest.failf "fault %a" Faros_vm.Cpu.pp_fault f
  in
  go 0

let paddr h vaddr = Faros_vm.Mmu.translate h.machine.mmu ~asid:h.space.asid vaddr

(* Taint a guest byte from a literal tag list (interned on the way in). *)
let taint_mem h vaddr tags =
  Shadow.set_mem h.engine.shadow (paddr h vaddr) (pl tags)

let mem_prov h vaddr = Shadow.get_mem h.engine.shadow (paddr h vaddr)

let reg_prov h r = Shadow.get_reg h.engine.shadow ~asid:h.space.asid r

let i x = Faros_vm.Asm.I x
let r0 = Faros_vm.Isa.r0
let r1 = Faros_vm.Isa.r1
let r2 = Faros_vm.Isa.r2
let r3 = Faros_vm.Isa.r3

let nf = Tag.Netflow 0

let engine_tests =
  [
    Alcotest.test_case "load copies memory taint to register" `Quick (fun () ->
        let h =
          harness [ i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000)); i Faros_vm.Isa.Halt ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "r0 tainted" true (Provenance.has_netflow (reg_prov h r0));
        (* the executing process's tag was prepended on access *)
        check_b "process tag" true
          (Provenance.process_indices (reg_prov h r0) <> []));
    Alcotest.test_case "store copies register taint to memory" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Store (1, Faros_vm.Isa.abs 0x2100, r0));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "dst tainted" true (Provenance.has_netflow (mem_prov h 0x2100)));
    Alcotest.test_case "overwrite with clean data clears taint" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Mov_ri (r0, 0));
              i (Faros_vm.Isa.Store (1, Faros_vm.Isa.abs 0x2000, r0));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "cleared" true (Provenance.is_empty (mem_prov h 0x2000)));
    Alcotest.test_case "mov_ri deletes register taint" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Mov_ri (r0, 7));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "deleted" true (Provenance.is_empty (reg_prov h r0)));
    Alcotest.test_case "alu union combines operand taint" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2004));
              i (Faros_vm.Isa.Add_rr (r0, r1));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        taint_mem h 0x2004 [ Tag.File 0 ];
        run h;
        check_b "nf" true (Provenance.has_netflow (reg_prov h r0));
        check_b "file" true (Provenance.has_file (reg_prov h r0)));
    Alcotest.test_case "xor r,r deletes taint (Table I delete)" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Xor_rr (r0, r0));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "deleted" true (Provenance.is_empty (reg_prov h r0)));
    Alcotest.test_case "push/pop carry taint through the stack" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Push r0);
              i (Faros_vm.Isa.Mov_ri (r0, 0));
              i (Faros_vm.Isa.Pop r1);
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "through stack" true (Provenance.has_netflow (reg_prov h r1)));
    Alcotest.test_case "call's pushed return address stays clean" `Quick
      (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              Faros_vm.Asm.Call_l "f";
              i Faros_vm.Isa.Halt;
              Faros_vm.Asm.Label "f";
              i (Faros_vm.Isa.Pop r2) (* read the return address *);
              i (Faros_vm.Isa.Jmp_r r2);
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "return addr clean" true (Provenance.is_empty (reg_prov h r2)));
    Alcotest.test_case "address dep OFF by default (Fig. 1 undertaint)" `Quick
      (fun () ->
        (* r2 <- table[tainted index]: default policy loses the taint *)
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Load (1, r2, Faros_vm.Isa.indexed ~scale:1 ~disp:0x2100 r1));
            i Faros_vm.Isa.Halt;
          ]
        in
        let h = harness items in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "laundered" false (Provenance.has_netflow (reg_prov h r2)));
    Alcotest.test_case "address dep ON propagates (Fig. 1 overtaint)" `Quick
      (fun () ->
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Load (1, r2, Faros_vm.Isa.indexed ~scale:1 ~disp:0x2100 r1));
            i Faros_vm.Isa.Halt;
          ]
        in
        let h = harness ~policy:Policy.with_address_deps items in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "kept" true (Provenance.has_netflow (reg_prov h r2)));
    Alcotest.test_case "minos: address dep only for 8/16-bit" `Quick (fun () ->
        let items w =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Load (w, r2, Faros_vm.Isa.indexed ~scale:1 ~disp:0x2100 r1));
            i Faros_vm.Isa.Halt;
          ]
        in
        let h1 = harness ~policy:Policy.minos (items 1) in
        taint_mem h1 0x2000 [ nf ];
        run h1;
        check_b "8-bit propagates" true (Provenance.has_netflow (reg_prov h1 r2));
        let h4 = harness ~policy:Policy.minos (items 4) in
        taint_mem h4 0x2000 [ nf ];
        run h4;
        check_b "32-bit does not" false (Provenance.has_netflow (reg_prov h4 r2)));
    Alcotest.test_case "control dep OFF by default (Fig. 2 undertaint)" `Quick
      (fun () ->
        (* if (tainted) r2 |= 1 — default: r2 stays clean *)
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Mov_ri (r2, 0));
            i (Faros_vm.Isa.Mov_ri (r3, 1));
            i (Faros_vm.Isa.Cmp_ri (r1, 0));
            Faros_vm.Asm.Jz_l "skip";
            i (Faros_vm.Isa.Or_rr (r2, r3));
            Faros_vm.Asm.Label "skip";
            i Faros_vm.Isa.Halt;
          ]
        in
        let h = harness items in
        taint_mem h 0x2000 [ nf ];
        Faros_vm.Mmu.write_u8 h.machine.mmu ~asid:h.space.asid 0x2000 1;
        run h;
        check_b "clean" false (Provenance.has_netflow (reg_prov h r2)));
    Alcotest.test_case "control dep ON taints the guarded write (Fig. 2)" `Quick
      (fun () ->
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Mov_ri (r2, 0));
            i (Faros_vm.Isa.Mov_ri (r3, 1));
            i (Faros_vm.Isa.Cmp_ri (r1, 0));
            Faros_vm.Asm.Jz_l "skip";
            i (Faros_vm.Isa.Or_rr (r2, r3));
            Faros_vm.Asm.Label "skip";
            i Faros_vm.Isa.Halt;
          ]
        in
        let h = harness ~policy:Policy.with_control_deps items in
        taint_mem h 0x2000 [ nf ];
        Faros_vm.Mmu.write_u8 h.machine.mmu ~asid:h.space.asid 0x2000 1;
        run h;
        check_b "tainted" true (Provenance.has_netflow (reg_prov h r2)));
    Alcotest.test_case "immediates taint under minos" `Quick (fun () ->
        (* code bytes tainted -> immediate inherits their provenance *)
        let items = [ i (Faros_vm.Isa.Mov_ri (r0, 5)); i Faros_vm.Isa.Halt ] in
        let h = harness ~policy:Policy.minos items in
        (* taint the instruction's own bytes *)
        for off = 0 to 5 do
          taint_mem h (0x1000 + off) [ nf ]
        done;
        run h;
        check_b "immediate tainted" true (Provenance.has_netflow (reg_prov h r0)));
    Alcotest.test_case "instruction fetch prepends process tag to code" `Quick
      (fun () ->
        let h = harness [ i Faros_vm.Isa.Nop; i Faros_vm.Isa.Halt ] in
        taint_mem h 0x1000 [ nf ];
        run h;
        let p = mem_prov h 0x1000 in
        match Provenance.to_list p with
        | Tag.Process _ :: _ -> ()
        | _ -> Alcotest.failf "expected process tag head, got %a" Provenance.pp p);
    Alcotest.test_case "load observers see instr and data provenance" `Quick
      (fun () ->
        let h =
          harness
            [ i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000)); i Faros_vm.Isa.Halt ]
        in
        taint_mem h 0x2000 [ Tag.Export_table 0 ];
        taint_mem h 0x1000 [ nf ];
        let seen = ref [] in
        Engine.add_load_observer h.engine (fun info -> seen := info :: !seen);
        run h;
        match !seen with
        | [ info ] ->
          check "pc" 0x1000 info.li_pc;
          check_b "instr prov has nf" true (Provenance.has_netflow info.li_instr_prov);
          check_b "read prov has export" true (Provenance.has_export info.li_read_prov)
        | l -> Alcotest.failf "expected 1 load, got %d" (List.length l));
    Alcotest.test_case "taint_export_pointers marks bytes" `Quick (fun () ->
        let e = Engine.create () in
        Engine.taint_export_pointers e [ ("VirtualAlloc", [ ext 10 4 ]) ];
        check_b "export" true (Provenance.has_export (Shadow.get_mem e.shadow 10)));
  ]

(* -- engine events ------------------------------------------------------------ *)

let no_asid _ = None

let event_tests =
  [
    Alcotest.test_case "net_recv inserts fresh netflow tags" `Quick (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 100 (pl [ Tag.File 0 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.Net_recv
             { pid = 1; flow = flow 1 2; dst = [ ext 100 2 ] });
        let p = Shadow.get_mem e.shadow 100 in
        check_b "netflow" true (Provenance.has_netflow p);
        check_b "old taint overwritten" false (Provenance.has_file p));
    Alcotest.test_case "file write then read flows provenance through the file"
      `Quick (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 50 (pl [ Tag.Netflow 7 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_write
             { pid = 1; path = "x"; version = 1; offset = 0; src = [ ext 50 1 ] });
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_read
             { pid = 2; path = "x"; version = 2; offset = 0; dst = [ ext 90 1 ] });
        let p = Shadow.get_mem e.shadow 90 in
        check_b "netflow survives the file hop" true (Provenance.has_netflow p);
        check_b "file tag added" true (Provenance.has_file p));
    Alcotest.test_case "file read at an offset uses the right file bytes" `Quick
      (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 50 (pl [ Tag.Netflow 7 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_write
             { pid = 1; path = "x"; version = 1; offset = 4; src = [ ext 50 1 ] });
        (* read offset 0..3: clean apart from the file tag *)
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_read
             { pid = 2; path = "x"; version = 2; offset = 0; dst = [ ext 80 1 ] });
        check_b "no netflow" false
          (Provenance.has_netflow (Shadow.get_mem e.shadow 80));
        (* read offset 4: carries the netflow *)
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_read
             { pid = 2; path = "x"; version = 2; offset = 4; dst = [ ext 81 1 ] });
        check_b "netflow" true (Provenance.has_netflow (Shadow.get_mem e.shadow 81)));
    Alcotest.test_case "mem_copy moves taint and adds the copier's tag" `Quick
      (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 10 (pl [ Tag.Netflow 0 ]);
        Engine.on_os_event e
          ~resolve_asid:(fun pid -> if pid = 7 then Some 77 else None)
          (Faros_os.Os_event.Mem_copy
             {
               by = 7;
               src_pid = 7;
               dst_pid = 8;
               src = [ ext 10 2 ];
               dst = [ ext 20 2 ];
             });
        let p = Shadow.get_mem e.shadow 20 in
        check_b "netflow" true (Provenance.has_netflow p);
        check_b "copier tag" true (Provenance.process_indices p <> []);
        check_b "clean source copies clean" true
          (Provenance.is_empty (Shadow.get_mem e.shadow 21)));
    Alcotest.test_case "mem_copy over tainted dst clears when src clean" `Quick
      (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 20 (pl [ Tag.Netflow 0 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.Mem_copy
             { by = 1; src_pid = 1; dst_pid = 2; src = [ ext 10 1 ]; dst = [ ext 20 1 ] });
        check_b "cleared" true (Provenance.is_empty (Shadow.get_mem e.shadow 20)));
    Alcotest.test_case "track_files=false suppresses file tags, keeps flow"
      `Quick (fun () ->
        let e = Engine.create ~policy:Policy.bit_taint () in
        Shadow.set_mem e.shadow 50 (pl [ Tag.Netflow 7 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_write
             { pid = 1; path = "x"; version = 1; offset = 0; src = [ ext 50 1 ] });
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_read
             { pid = 2; path = "x"; version = 2; offset = 0; dst = [ ext 90 1 ] });
        let p = Shadow.get_mem e.shadow 90 in
        check_b "netflow still flows" true (Provenance.has_netflow p);
        check_b "no file tag" false (Provenance.has_file p));
    Alcotest.test_case "file delete clears the file shadow" `Quick (fun () ->
        let e = Engine.create () in
        Shadow.set_mem e.shadow 50 (pl [ Tag.Netflow 7 ]);
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_write
             { pid = 1; path = "x"; version = 1; offset = 0; src = [ ext 50 1 ] });
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_deleted { pid = 1; path = "x" });
        Engine.on_os_event e ~resolve_asid:no_asid
          (Faros_os.Os_event.File_read
             { pid = 2; path = "x"; version = 3; offset = 0; dst = [ ext 91 1 ] });
        check_b "no stale flow" false
          (Provenance.has_netflow (Shadow.get_mem e.shadow 91)));
  ]


(* -- buffer events against a per-byte reference -------------------------------- *)

(* The reference: a paddr -> provenance table and per-file offset ->
   provenance tables, updated one byte at a time from extents expanded in
   the test.  It keeps its own tag store; fed the same events in the same
   order, it mints the same tags. *)
type model = {
  m_mem : (int, Provenance.t) Hashtbl.t;
  m_files : (string, (int, Provenance.t) Hashtbl.t) Hashtbl.t;
  m_store : Tag_store.t;
  m_policy : Policy.t;
}

let m_get m pa = Option.value ~default:Provenance.empty (Hashtbl.find_opt m.m_mem pa)

let m_set m pa p =
  if Provenance.is_empty p then Hashtbl.remove m.m_mem pa else Hashtbl.replace m.m_mem pa p

let bytes_of es =
  List.concat_map
    (fun (e : Faros_vm.Extent.t) -> List.init e.len (fun i -> e.paddr + i))
    es

let m_tagger m ~path ~version =
  if m.m_policy.track_files then
    Provenance.prepend (Tag_store.file m.m_store ~name:path ~version)
  else Fun.id

let model_apply m ~resolve_asid (ev : Faros_os.Os_event.t) =
  match ev with
  | Net_recv { flow; dst; _ } ->
    let p = Provenance.singleton (Tag_store.netflow m.m_store flow) in
    List.iter (fun pa -> m_set m pa p) (bytes_of dst)
  | File_read { path; version; offset; dst; _ } ->
    let tag_it = m_tagger m ~path ~version in
    let at i =
      match Hashtbl.find_opt m.m_files path with
      | Some f -> Option.value ~default:Provenance.empty (Hashtbl.find_opt f (offset + i))
      | None -> Provenance.empty
    in
    List.iteri (fun i pa -> m_set m pa (tag_it (at i))) (bytes_of dst)
  | File_write { path; version; offset; src; _ } ->
    let tag_it = m_tagger m ~path ~version in
    let f =
      match Hashtbl.find_opt m.m_files path with
      | Some f -> f
      | None ->
        let f = Hashtbl.create 16 in
        Hashtbl.replace m.m_files path f;
        f
    in
    List.iteri
      (fun i pa ->
        let p = tag_it (m_get m pa) in
        Hashtbl.replace f (offset + i) p;
        m_set m pa p)
      (bytes_of src)
  | Mem_copy { by; src; dst; _ } ->
    let ptag = Option.map (Tag_store.process m.m_store) (resolve_asid by) in
    List.iter2
      (fun s d ->
        let p = m_get m s in
        if Provenance.is_empty p then m_set m d Provenance.empty
        else begin
          let p' = match ptag with Some tag -> Provenance.prepend tag p | None -> p in
          m_set m s p';
          m_set m d p'
        end)
      (bytes_of src) (bytes_of dst)
  | File_deleted { path; _ } -> Hashtbl.remove m.m_files path
  | _ -> ()

(* Extents on the first three pages, often straddling a page boundary;
   [split n] lays [n] bytes out as one to three extents, for the other
   side of a copy. *)
let buf_pages = 3

let gen_extent =
  let open QCheck.Gen in
  let* len = int_range 1 300 in
  let+ paddr =
    frequency
      [
        (2, int_range 0 ((buf_pages * 4096) - len));
        (1, map (fun (k, d) -> (k * 4096) - d) (pair (int_range 1 (buf_pages - 1)) (int_bound (min len 200))));
      ]
  in
  ext paddr len

let gen_extents = QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) gen_extent

let split n =
  let open QCheck.Gen in
  let+ cuts = list_size (int_bound 2) (int_range 1 (max 1 (n - 1))) in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < n) cuts) in
  let bounds = (0 :: cuts) @ [ n ] in
  let rec lens = function a :: (b :: _ as rest) -> (b - a) :: lens rest | _ -> [] in
  lens bounds

let gen_copy_dst n =
  let open QCheck.Gen in
  let* lens = split n in
  flatten_l
    (List.map
       (fun len -> map (fun paddr -> ext paddr len) (int_range 0 ((buf_pages * 4096) - len)))
       lens)

let gen_buffer_event : Faros_os.Os_event.t QCheck.Gen.t =
  let open QCheck.Gen in
  let path = oneofl [ "a"; "b" ] and version = int_range 1 3 in
  let offset = frequency [ (2, int_bound 16); (1, int_bound 1000) ] in
  frequency
    [
      ( 2,
        map2
          (fun src dst -> Faros_os.Os_event.Net_recv { pid = 1; flow = flow src 9; dst })
          (int_range 1 3) gen_extents );
      ( 3,
        map4
          (fun path version offset dst ->
            Faros_os.Os_event.File_read { pid = 2; path; version; offset; dst })
          path version offset gen_extents );
      ( 3,
        map4
          (fun path version offset src ->
            Faros_os.Os_event.File_write { pid = 1; path; version; offset; src })
          path version offset gen_extents );
      ( 2,
        let* by = oneofl [ 1; 2; 9 ] in
        let* src = gen_extents in
        let+ dst = gen_copy_dst (Faros_vm.Extent.total src) in
        Faros_os.Os_event.Mem_copy { by; src_pid = 1; dst_pid = 2; src; dst } );
      (1, map (fun path -> Faros_os.Os_event.File_deleted { pid = 1; path }) path);
    ]

let print_buffer_event (ev : Faros_os.Os_event.t) =
  let es l =
    String.concat ","
      (List.map (fun (e : Faros_vm.Extent.t) -> Printf.sprintf "%d+%d" e.paddr e.len) l)
  in
  match ev with
  | Net_recv { flow; dst; _ } -> Printf.sprintf "recv(%d)->[%s]" flow.src_ip (es dst)
  | File_read { path; version; offset; dst; _ } ->
    Printf.sprintf "read(%s v%d @%d)->[%s]" path version offset (es dst)
  | File_write { path; version; offset; src; _ } ->
    Printf.sprintf "write(%s v%d @%d)<-[%s]" path version offset (es src)
  | Mem_copy { by; src; dst; _ } -> Printf.sprintf "copy(by %d)[%s]->[%s]" by (es src) (es dst)
  | File_deleted { path; _ } -> Printf.sprintf "delete(%s)" path
  | ev -> Faros_os.Os_event.name ev

let buffer_events_match_reference =
  QCheck.Test.make ~count:300
    ~name:"buffer events: engine shadow matches a per-byte reference after every event"
    (QCheck.make
       ~print:(fun (faros, evs) ->
         Printf.sprintf "policy=%s events=%s"
           (if faros then "faros" else "bit-taint")
           (String.concat "; " (List.map print_buffer_event evs)))
       QCheck.Gen.(pair bool (list_size (int_range 1 12) gen_buffer_event)))
    (fun (faros, evs) ->
      let policy = if faros then Policy.faros_default else Policy.bit_taint in
      let resolve_asid = function 1 -> Some 11 | 2 -> Some 12 | _ -> None in
      let e = Engine.create ~policy () in
      let m =
        {
          m_mem = Hashtbl.create 64;
          m_files = Hashtbl.create 4;
          m_store = Tag_store.create ();
          m_policy = policy;
        }
      in
      let by_paddr l = List.sort (fun (a, _) (b, _) -> compare a b) l in
      List.for_all
        (fun ev ->
          Engine.on_os_event e ~resolve_asid ev;
          model_apply m ~resolve_asid ev;
          let got = ref [] in
          Shadow.iter_mem e.shadow (fun pa p -> got := (pa, p) :: !got);
          let want = Hashtbl.fold (fun pa p acc -> (pa, p) :: acc) m.m_mem [] in
          List.equal
            (fun (a, p) (b, q) -> a = b && Provenance.equal p q)
            (by_paddr !got) (by_paddr want)
          && Shadow.tainted_bytes e.shadow = Hashtbl.length m.m_mem)
        evs)

let buffer_event_prop_tests =
  [ QCheck_alcotest.to_alcotest buffer_events_match_reference ]

(* -- more propagation semantics ----------------------------------------------- *)

let more_engine_tests =
  [
    Alcotest.test_case "store4 taints all four destination bytes" `Quick
      (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Store (4, Faros_vm.Isa.abs 0x2100, r0));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        for k = 0 to 3 do
          check_b
            (Printf.sprintf "byte %d" k)
            true
            (Provenance.has_netflow (mem_prov h (0x2100 + k)))
        done);
    Alcotest.test_case "load2 only unions the two bytes read" `Quick (fun () ->
        let h =
          harness
            [ i (Faros_vm.Isa.Load (2, r0, Faros_vm.Isa.abs 0x2000)); i Faros_vm.Isa.Halt ]
        in
        taint_mem h 0x2002 [ nf ] (* outside the access *);
        run h;
        check_b "clean" false (Provenance.has_netflow (reg_prov h r0)));
    Alcotest.test_case "lea unions base and index register taint" `Quick
      (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Mov_ri (r2, 4));
              i (Faros_vm.Isa.Lea (r3, Faros_vm.Isa.indexed ~base:r1 ~scale:2 r2));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "lea result tainted" true (Provenance.has_netflow (reg_prov h r3)));
    Alcotest.test_case "shl_rr and mul union operand taint" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Mov_ri (r2, 3));
              i (Faros_vm.Isa.Shl_rr (r2, r1));
              i (Faros_vm.Isa.Mov_ri (r3, 5));
              i (Faros_vm.Isa.Mul_rr (r3, r1));
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "shl" true (Provenance.has_netflow (reg_prov h r2));
        check_b "mul" true (Provenance.has_netflow (reg_prov h r3)));
    Alcotest.test_case "not preserves provenance" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
              i (Faros_vm.Isa.Not_r r1);
              i Faros_vm.Isa.Halt;
            ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "kept" true (Provenance.has_netflow (reg_prov h r1)));
    Alcotest.test_case "control window expires" `Quick (fun () ->
        (* a write far after the tainted conditional stays clean even under
           the control-dep policy *)
        let filler = List.init 40 (fun _ -> i Faros_vm.Isa.Nop) in
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Cmp_ri (r1, 0));
            Faros_vm.Asm.Jz_l "skip";
            Faros_vm.Asm.Label "skip";
          ]
          @ filler
          @ [ i (Faros_vm.Isa.Mov_ri (r2, 0)); i (Faros_vm.Isa.Or_ri (r2, 1)); i Faros_vm.Isa.Halt ]
        in
        let h = harness ~policy:Policy.with_control_deps items in
        taint_mem h 0x2000 [ nf ];
        run h;
        check_b "expired" false (Provenance.has_netflow (reg_prov h r2)));
    Alcotest.test_case "engine counts processed instructions" `Quick (fun () ->
        let h = harness [ i Faros_vm.Isa.Nop; i Faros_vm.Isa.Nop; i Faros_vm.Isa.Halt ] in
        run h;
        check "three" 3 (Engine.instrs_processed h.engine));
    Alcotest.test_case "load observers fire in registration order" `Quick
      (fun () ->
        (* observer registration is O(1) on a queue now; the iteration
           order must still be the order the observers were added in *)
        let h =
          harness
            [ i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000)); i Faros_vm.Isa.Halt ]
        in
        let calls = ref [] in
        List.iter
          (fun id ->
            Engine.add_load_observer h.engine (fun _ -> calls := id :: !calls))
          [ 1; 2; 3 ];
        run h;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !calls));
    Alcotest.test_case "pop notifies load observers" `Quick (fun () ->
        let h =
          harness
            [
              i (Faros_vm.Isa.Mov_ri (r0, 7));
              i (Faros_vm.Isa.Push r0);
              i (Faros_vm.Isa.Pop r1);
              i Faros_vm.Isa.Halt;
            ]
        in
        let loads = ref 0 in
        Engine.add_load_observer h.engine (fun _ -> incr loads);
        run h;
        check "one pop load" 1 !loads);
    Alcotest.test_case "stats reflect tag store population" `Quick (fun () ->
        let h =
          harness
            [ i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2000)); i Faros_vm.Isa.Halt ]
        in
        taint_mem h 0x2000 [ nf ];
        run h;
        let s = Engine.stats h.engine in
        check_b "instrs" true (s.Engine.instrs > 0);
        check_b "tainted" true (s.Engine.tainted_bytes > 0);
        check_b "process tag interned" true (s.Engine.process_tags >= 1));
    Alcotest.test_case "same program, two engines, different policies differ"
      `Quick (fun () ->
        let items =
          [
            i (Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.abs 0x2000));
            i (Faros_vm.Isa.Load (1, r2, Faros_vm.Isa.indexed ~scale:1 ~disp:0x2100 r1));
            i Faros_vm.Isa.Halt;
          ]
        in
        let run_with policy =
          let h = harness ~policy items in
          taint_mem h 0x2000 [ nf ];
          run h;
          Provenance.has_netflow (reg_prov h r2)
        in
        check_b "default drops" false (run_with Policy.faros_default);
        check_b "addr-dep keeps" true (run_with Policy.with_address_deps));
  ]


(* -- engine soundness properties ---------------------------------------------------- *)

(* Random straight-line programs with memory traffic inside a scratch
   window. *)
let arb_mem_instrs =
  QCheck.Gen.(
    let* r1 = int_range 0 7 in
    let* r2 = int_range 0 7 in
    let* v = int_range 0 0xFFFF in
    let* off = int_range 0 0xF00 in
    let* w = oneofl [ 1; 2; 4 ] in
    oneofl
      [
        [ Faros_vm.Isa.Mov_ri (r1, v) ];
        [ Faros_vm.Isa.Mov_rr (r1, r2) ];
        [ Faros_vm.Isa.Add_rr (r1, r2) ];
        [ Faros_vm.Isa.Xor_rr (r1, r2) ];
        [ Faros_vm.Isa.And_ri (r1, v) ];
        [ Faros_vm.Isa.Load (w, r1, Faros_vm.Isa.abs (0x2000 + off)) ];
        [ Faros_vm.Isa.Store (w, Faros_vm.Isa.abs (0x2000 + off), r1) ];
        (* keep the index inside the mapped scratch window *)
        [
          Faros_vm.Isa.And_ri (r2, 0xFF);
          Faros_vm.Isa.Load (1, r1, Faros_vm.Isa.indexed ~scale:1 ~disp:0x2000 r2);
        ];
        [ Faros_vm.Isa.Push r1 ];
        [ Faros_vm.Isa.Pop r1 ];
      ])

let arb_mem_program =
  QCheck.Gen.(map List.concat (list_size (int_range 1 50) arb_mem_instrs))

(* Pushes can outnumber pops; keep sp inside the mapped stack by resetting
   it high and bounding program length (60 * 4 bytes << stack pages). *)
let run_program ~policy instrs =
  let h = harness ~policy (List.map (fun x -> i x) instrs @ [ i Faros_vm.Isa.Halt ]) in
  (h, fun () -> run h)

let no_spontaneous_taint =
  QCheck.Test.make ~count:150
    ~name:"no taint appears from nowhere (clean run stays clean)"
    (QCheck.make arb_mem_program)
    (fun instrs ->
      let h, go = run_program ~policy:Policy.with_all_indirect instrs in
      go ();
      Shadow.tainted_bytes h.engine.shadow = 0
      && Shadow.tainted_regs h.engine.shadow = 0)

let tainted_mem_set h =
  let acc = ref [] in
  Shadow.iter_mem h.engine.shadow (fun paddr _ -> acc := paddr :: !acc);
  List.sort_uniq compare !acc

let policy_monotone =
  QCheck.Test.make ~count:150
    ~name:"direct-flow taint is a subset of all-indirect taint"
    (QCheck.make arb_mem_program)
    (fun instrs ->
      let run policy =
        let h, go = run_program ~policy instrs in
        taint_mem h 0x2000 [ nf ];
        taint_mem h 0x2001 [ nf ];
        go ();
        (h, tainted_mem_set h)
      in
      let _, base = run Policy.faros_default in
      let h_all, all = run Policy.with_all_indirect in
      ignore h_all;
      List.for_all (fun p -> List.mem p all) base)

let soundness_tests =
  [
    QCheck_alcotest.to_alcotest no_spontaneous_taint;
    QCheck_alcotest.to_alcotest policy_monotone;
  ]

(* -- demand-driven fast path ----------------------------------------------- *)

(* Like [harness], but executing through the TB cache with the fast path
   interposed between the machine and the engine. *)
let fast_harness ?(policy = Policy.faros_default) items =
  let machine =
    Machine_defaults.with_defaults ~tb:true ~fast:true Faros_vm.Machine.create
  in
  let space = Faros_vm.Mmu.create_space machine.mmu ~name:"guest" in
  Faros_vm.Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  Faros_vm.Mmu.map machine.mmu space ~vaddr:0x7F000 ~pages:2;
  let prog = Faros_vm.Asm.assemble ~origin:0x1000 items in
  Faros_vm.Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
  let cpu = Faros_vm.Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0x80000 in
  let engine = Engine.create ~policy () in
  let fp = Fastpath.create ~machine engine in
  Faros_vm.Machine.add_exec_hook machine (fun c e -> Fastpath.on_exec fp c e);
  ({ machine; space; cpu; engine }, prog, fp)

let counted_loop n body =
  [ i (Faros_vm.Isa.Mov_ri (r3, n)); Faros_vm.Asm.Label "loop" ]
  @ body
  @ [
      i (Faros_vm.Isa.Sub_ri (r3, 1));
      i (Faros_vm.Isa.Cmp_ri (r3, 0));
      Faros_vm.Asm.Jnz_l "loop";
      i Faros_vm.Isa.Halt;
    ]

let fastpath_tests =
  [
    Alcotest.test_case "clean loop executes on the fast path" `Quick (fun () ->
        let h, _, fp =
          fast_harness (counted_loop 100 [ i (Faros_vm.Isa.Add_rr (r0, r1)) ])
        in
        run h;
        let hits, misses = Fastpath.stats fp in
        check "every instruction accounted" h.cpu.instr_count (hits + misses);
        check_b "mostly skipped" true
          (float_of_int hits /. float_of_int (hits + misses) >= 0.9));
    Alcotest.test_case
      "tainted fetch is never skipped before the process tag lands" `Quick
      (fun () ->
        (* The first execution of tainted code must run the engine so the
           fetch touch prepends the process tag — FAROS's injection
           signal ("including instruction fetch"). *)
        let h, _, _ = fast_harness [ i Faros_vm.Isa.Nop; i Faros_vm.Isa.Halt ] in
        taint_mem h 0x1000 [ nf ];
        run h;
        match Provenance.to_list (mem_prov h 0x1000) with
        | Tag.Process _ :: _ -> ()
        | _ ->
          Alcotest.failf "expected process tag head, got %a" Provenance.pp
            (mem_prov h 0x1000));
    Alcotest.test_case
      "converged tainted code skips, observers still see fetch provenance"
      `Quick
      (fun () ->
        (* Whole-image file tagging means steady-state code is tainted;
           once each byte heads with the process tag the fetch touch is a
           no-op and the block may skip — but the detector's observers
           must keep receiving the real (non-empty) code-byte provenance,
           identical to what the slow path would compute. *)
        let h, prog, fp =
          fast_harness
            (counted_loop 50 [ i (Faros_vm.Isa.Load (1, r0, Faros_vm.Isa.abs 0x2800)) ])
        in
        Shadow.set_mem_range h.engine.Engine.shadow
          (paddr h 0x1000)
          (Bytes.length prog.Faros_vm.Asm.code)
          (pl [ nf ]);
        let loads = ref 0 and tainted_instr = ref 0 and tainted_read = ref 0 in
        Engine.add_load_observer h.engine (fun info ->
            incr loads;
            if Provenance.has_netflow info.li_instr_prov then incr tainted_instr;
            if not (Provenance.is_empty info.li_read_prov) then incr tainted_read);
        run h;
        let hits, _ = Fastpath.stats fp in
        check_b "loop converged onto the fast path" true (hits > 0);
        check "one observation per executed load" 50 !loads;
        check "every observation carries the fetch provenance" 50 !tainted_instr;
        check "clean data reads stay clean" 0 !tainted_read);
  ]

let () =
  Alcotest.run "faros_dift"
    [
      ("tag", tag_tests);
      ("tag-store", store_tests);
      ("provenance", prov_tests);
      ("shadow", shadow_tests);
      ("shadow-properties", shadow_prop_tests);
      ("engine", engine_tests);
      ("engine-more", more_engine_tests);
      ("engine-events", event_tests);
      ("events-reference", buffer_event_prop_tests);
      ("soundness", soundness_tests);
      ("fastpath", fastpath_tests);
    ]

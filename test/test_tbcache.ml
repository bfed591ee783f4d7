(* Tests for the translation-block cache: self-modifying-code
   invalidation, cached-vs-uncached differential equivalence over corpus
   scenarios, and the hit/miss telemetry. *)

open Faros_vm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let i x = Asm.I x

(* Assemble [items] at 0x1000 on [machine] and run to halt. *)
let run_on (machine : Machine.t) items =
  let space = Mmu.create_space machine.mmu ~name:"t" in
  Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  Mmu.map machine.mmu space ~vaddr:0x7F000 ~pages:4;
  let prog = Asm.assemble ~origin:0x1000 items in
  Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
  let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:(0x7F000 + 0x3FF0) in
  let rec go n =
    if n >= 10_000 then Alcotest.fail "program did not halt"
    else
      match Machine.step machine cpu with
      | Ok _ when cpu.halted -> ()
      | Ok _ -> go (n + 1)
      | Error f -> Alcotest.failf "fault: %a" Cpu.pp_fault f
  in
  go 0;
  (cpu, machine)

(* The same on a fresh machine, with the TB cache on or off. *)
let run_program ?(tb = true) items =
  run_on (Machine_defaults.with_defaults ~tb ~fast:true Machine.create) items

(* A guest that patches its own code and re-executes it: the target
   instruction [Mov_ri r0, 1] sits at 0x1006 (origin 0x1000 + the 6-byte
   Mov_ri before it), so its 4-byte immediate starts at 0x1008.  The first
   pass executes it as written (r0 = 1) and caches the block; the guest
   then stores 42 over the immediate and loops.  Only if the store
   invalidated the cached block does the second pass re-decode and leave
   r0 = 42. *)
let smc_program =
  let target_imm_addr = 0x1000 + 6 + 2 in
  [
    i (Isa.Mov_ri (Isa.r2, 0));  (* pass counter *)
    Asm.Label "loop";
    i (Isa.Mov_ri (Isa.r0, 1));  (* the patched instruction *)
    i (Isa.Cmp_ri (Isa.r2, 1));
    Asm.Jz_l "done";
    i (Isa.Mov_ri (Isa.r2, 1));
    i (Isa.Mov_ri (Isa.r3, 42));
    i (Isa.Store (1, Isa.abs target_imm_addr, Isa.r3));
    Asm.Jmp_l "loop";
    Asm.Label "done";
    i Isa.Halt;
  ]

(* -- byte-exact SMC against the uncached interpreter ------------------------ *)

(* A three-pass loop whose body straddles the page boundary at 0x2000,
   with data bytes on both code pages: before the first instruction, in a
   gap the loop jumps over, and after the halt.  [split] is how many
   bytes of the straddling instruction lie below the boundary.  Each pass
   runs up to two guest stores, and host copies land between steps.
   Every write's target is drawn by kind — beside the code, inside an
   immediate, on a block's last byte, on the instruction that straddles
   the page, or anywhere around the code — so writes miss the code by a
   byte or hit a block's span at its edges, and a copy out of the gap
   runs into the block after it.  A cache that keeps a block whose code a
   write changed runs the old instruction, and the two machines part. *)
type kind = Beside | Imm | Last | Straddle | Anywhere

type smc_case = {
  split : int;  (* 1..5 *)
  stores : (int * (kind * int) * int) list;  (* width, target, value *)
  copies : (int * (kind * int) * int * string) list;
      (* before step, target, how far the copy starts before it, bytes *)
}

let smc_loop stores =
  let open Isa in
  [
    i (Mov_ri (r2, 3));
    i (Mov_ri (r1, 0));
    Asm.Label "loop";
    Asm.Label "i0"; i (Mov_ri (r0, 0x11111111));
    Asm.Label "i1"; i (Add_ri (r1, 0x01020304));
    Asm.Label "jmp"; Asm.Jmp_l "body";
    Asm.Label "gap"; Asm.Space 8;
    Asm.Label "body";
    Asm.Label "i2"; i (Add_ri (r7, 0x090A0B0C));
    Asm.Label "straddle"; i (Xor_ri (r3, 0x0A0B0C0D));
    Asm.Label "i3"; i (Add_ri (r4, 0x05060708));
    i (Add_rr (r1, r0));
  ]
  @ List.concat_map
      (fun (w, addr, v) ->
        [ i (Mov_ri (r5, addr)); i (Mov_ri (r6, v)); i (Store (w, based r5, r6)) ])
      stores
  @ [
      i (Sub_ri (r2, 1));
      i (Cmp_ri (r2, 0));
      Asm.Label "jnz"; Asm.Jnz_l "loop";
      Asm.Label "halt"; i Halt;
      Asm.Label "data";
    ]

(* Assemble the case: place the loop so [split] bytes of the straddling
   instruction lie below 0x2000, resolve the targets against that layout
   (the stores' immediates do not move it), and return the program with
   the host copies as (step, start, bytes). *)
let assemble_case c =
  let placeholder = List.map (fun (w, _, v) -> (w, 0, v)) c.stores in
  let at0 = Asm.assemble ~origin:0x1000 (smc_loop placeholder) in
  let origin = 0x2000 - c.split - (Asm.lookup at0 "straddle" - 0x1000) in
  let layout = Asm.assemble ~origin (smc_loop placeholder) in
  let l = Asm.lookup layout in
  let data = l "data" in
  let resolve (kind, k) =
    match kind with
    | Beside -> List.nth [ origin - 8; l "gap"; data ] (k / 8 mod 3) + (k mod 8)
    | Imm ->
      (* an [_ri] instruction's immediate is its last 4 of 6 bytes *)
      l (List.nth [ "i0"; "i1"; "i2"; "straddle"; "i3" ] (k / 4 mod 5)) + 2 + (k mod 4)
    | Last -> List.nth [ l "jmp" + 4; l "jnz" + 4; 0x1FFF; l "halt" ] (k mod 4)
    | Straddle -> l "straddle" + (k mod 6)
    | Anywhere -> origin - 8 + (k mod (data + 16 - origin))
  in
  let prog =
    Asm.assemble ~origin (smc_loop (List.map (fun (w, t, v) -> (w, resolve t, v)) c.stores))
  in
  assert (Bytes.length prog.code = Bytes.length layout.code);
  (prog, List.map (fun (step, t, back, b) -> (step, resolve t - back, b)) c.copies)

let gen_smc_case =
  let open QCheck.Gen in
  let target =
    pair
      (frequencyl [ (3, Beside); (3, Imm); (1, Last); (1, Straddle); (2, Anywhere) ])
      (int_bound 1000)
  in
  let store = triple (oneofl [ 1; 2; 4 ]) target (int_bound 0xFFFFFFFF) in
  let copy =
    let* step = int_bound 80 and* t = target and* len = int_range 1 12 in
    let+ back = int_bound (len - 1) and+ b = string_size ~gen:char (return len) in
    (step, t, back, b)
  in
  let* split = int_range 1 5 and* stores = list_size (int_bound 2) store in
  let+ copies = list_size (int_range 1 4) copy in
  { split; stores; copies }

let print_smc_case c =
  let kind = function
    | Beside -> "beside"
    | Imm -> "imm"
    | Last -> "last"
    | Straddle -> "straddle"
    | Anywhere -> "anywhere"
  in
  let target (k, n) = Printf.sprintf "%s %d" (kind k) n in
  Printf.sprintf "split=%d stores=[%s] copies=[%s]" c.split
    (String.concat "; "
       (List.map (fun (w, t, v) -> Printf.sprintf "%d@%s=%#x" w (target t) v) c.stores))
    (String.concat "; "
       (List.map
          (fun (step, t, back, b) ->
            Printf.sprintf "step %d: %s-%d len %d" step (target t) back (String.length b))
          c.copies))

(* Run to halt, the first fault or 400 steps, applying each host copy
   before its step; then the machine state the property compares. *)
let run_smc ~tb ((prog : Asm.program), copies) =
  let machine = Machine_defaults.with_defaults ~tb ~fast:true Machine.create in
  let space = Mmu.create_space machine.mmu ~name:"t" in
  Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  Mmu.map machine.mmu space ~vaddr:0x7F000 ~pages:4;
  let asid = space.asid in
  Mmu.write_bytes machine.mmu ~asid prog.origin prog.code;
  let cpu = Cpu.create ~cr3:asid ~pc:prog.origin ~sp:(0x7F000 + 0x3FF0) in
  let rec go step =
    List.iter
      (fun (s, start, b) ->
        if s = step then Mmu.write_bytes machine.mmu ~asid start (Bytes.of_string b))
      copies;
    if step >= 400 || cpu.halted then None
    else match Machine.step machine cpu with Ok _ -> go (step + 1) | Error f -> Some f
  in
  let fault = go 0 in
  ( fault,
    cpu.pc,
    cpu.instr_count,
    List.init Isa.num_regs (Cpu.get cpu),
    Bytes.to_string (Mmu.read_bytes machine.mmu ~asid 0x1000 (4 * Mmu.page_size)) )

let smc_prop =
  QCheck.Test.make ~count:500
    ~name:"writes on code pages: the TB cache agrees with the uncached interpreter"
    (QCheck.make ~print:print_smc_case gen_smc_case) (fun c ->
      let p = assemble_case c in
      run_smc ~tb:true p = run_smc ~tb:false p)

let smc_tests =
  [
    Alcotest.test_case "store into a cached block forces re-decode" `Quick
      (fun () ->
        let cpu, machine = run_program smc_program in
        check "patched instruction re-executed" 42 (Cpu.get cpu Isa.r0);
        let st = Machine.tb_stats machine in
        check_bool "invalidation counted" true (st.Tb_cache.st_invalidations >= 1));
    Alcotest.test_case "uncached interpreter agrees on the SMC program" `Quick
      (fun () ->
        let cached, _ = run_program ~tb:true smc_program in
        let uncached, _ = run_program ~tb:false smc_program in
        check "same r0" (Cpu.get uncached Isa.r0) (Cpu.get cached Isa.r0);
        check "same instr count" uncached.instr_count cached.instr_count;
        check "same pc" uncached.pc cached.pc);
    Alcotest.test_case "unmap invalidates the space's blocks" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        let prog = Asm.assemble ~origin:0x1000 [ i Isa.Nop; i Isa.Halt ] in
        Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        (match Machine.step machine cpu with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "fault: %a" Cpu.pp_fault f);
        let before = (Machine.tb_stats machine).Tb_cache.st_blocks in
        check_bool "block cached" true (before >= 1);
        Mmu.unmap machine.mmu space ~vaddr:0x1000 ~pages:1;
        check "blocks dropped" 0 (Machine.tb_stats machine).Tb_cache.st_blocks);
    Alcotest.test_case "a store beside cached code keeps the block" `Quick (fun () ->
        (* Every pass stores into a data word on the loop's own code page. *)
        let run passes =
          let cpu, machine =
            run_program
              [
                i (Isa.Mov_ri (Isa.r0, passes));
                Asm.Mov_label (Isa.r5, "data");
                Asm.Label "loop";
                i (Isa.Store (4, Isa.based Isa.r5, Isa.r0));
                i (Isa.Sub_ri (Isa.r0, 1));
                i (Isa.Cmp_ri (Isa.r0, 0));
                Asm.Jnz_l "loop";
                i Isa.Halt;
                Asm.Label "data";
                Asm.U32 0;
              ]
          in
          check "loop ran" 0 (Cpu.get cpu Isa.r0);
          Machine.tb_stats machine
        in
        let short = run 10 and long = run 100 in
        check "misses stay flat" short.Tb_cache.st_misses long.Tb_cache.st_misses;
        check "no invalidations" 0 long.Tb_cache.st_invalidations;
        check_bool "hits grow" true (long.Tb_cache.st_hits > short.Tb_cache.st_hits));
    QCheck_alcotest.to_alcotest smc_prop;
  ]

(* -- four-way differential over corpus scenarios -------------------------- *)

let differential_ids =
  [ "reflective_dll_inject"; "process_hollowing"; "snipping_tool_s0"; "applet_ncradle" ]

(* One full analysis with the TB cache and the DIFT fast path each forced
   on or off; a fresh interner per run so rendered provenance is
   independent of run order. *)
let analyze_with ~tb ~fast id =
  let sample =
    match Faros_corpus.Registry.find id with
    | Some s -> s
    | None -> Alcotest.failf "unknown sample %s" id
  in
  Machine_defaults.with_defaults ~tb ~fast (fun () ->
      let store = Faros_dift.Provenance.create_store () in
      Faros_dift.Provenance.set_store store;
      let outcome = Faros_corpus.Scenario.analyze sample.scenario in
      let flags = Core.Report.flagged_sites outcome.report in
      let rendered = Fmt.str "%a" Core.Faros_plugin.pp_report outcome.faros in
      ( outcome.trace.final_tick,
        outcome.replay.replay_ticks,
        outcome.replay.diverged,
        List.length flags,
        rendered ))

let differential_tests =
  [
    Alcotest.test_case "off vs on: identical verdicts, ticks and reports"
      `Slow
      (fun () ->
        (* The full matrix: TB cache x DIFT fast path.  Every configuration
           must produce byte-identical analysis results; (tb:false,
           fast:true) additionally pins that the fast-path knob is inert
           without the cache (no summaries to consult). *)
        List.iter
          (fun id ->
            let rt, pt, div, nflags, rep = analyze_with ~tb:false ~fast:false id in
            List.iter
              (fun (tb, fast) ->
                let label =
                  Printf.sprintf "%s (tb:%b fast:%b)" id tb fast
                in
                let rt', pt', div', nflags', rep' = analyze_with ~tb ~fast id in
                check (label ^ ": record ticks") rt rt';
                check (label ^ ": replay ticks") pt pt';
                check_bool (label ^ ": diverged") div div';
                check (label ^ ": flag count") nflags nflags';
                Alcotest.(check string) (label ^ ": report") rep rep')
              [ (true, false); (false, true); (true, true) ])
          differential_ids);
    Alcotest.test_case "fetch-tainted code still flags with the fast path on"
      `Quick
      (fun () ->
        (* Injected code executes from netflow-tainted pages; the fast path
           must never swallow that signal (its first execution is
           unconverged, so the fetch touch and the detector both run). *)
        let _, _, _, nflags, _ =
          analyze_with ~tb:true ~fast:true "reflective_dll_inject"
        in
        check_bool "flagged" true (nflags >= 1));
  ]

(* -- decode-time taint summaries ------------------------------------------ *)

(* Translate one block and return its summary. *)
let summary_of items =
  let machine = Machine.create () in
  let space = Mmu.create_space machine.mmu ~name:"t" in
  Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  let prog = Asm.assemble ~origin:0x1000 items in
  Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
  match Tb_cache.translate machine.tb ~asid:space.asid ~pc:0x1000 with
  | Some b -> (b.Tb_cache.b_summary, Machine.tb_stats machine)
  | None -> Alcotest.fail "translation failed"

let reg_bit r = 1 lsl r

let summary_tests =
  [
    Alcotest.test_case "inert block: no registers, memory or flags" `Quick
      (fun () ->
        let su, st = summary_of [ i Isa.Nop; i Isa.Halt ] in
        check "regs" 0 su.Tb_cache.su_regs;
        check_bool "mem" false su.su_mem;
        check_bool "flags" false su.su_flags;
        check_bool "summary counted" true (st.Tb_cache.st_summarized >= 1));
    Alcotest.test_case "load names value and address registers, and memory"
      `Quick
      (fun () ->
        let su, _ =
          summary_of [ i (Isa.Load (4, Isa.r0, Isa.based Isa.r2)); i Isa.Halt ]
        in
        check "regs" (reg_bit Isa.r0 lor reg_bit Isa.r2) su.Tb_cache.su_regs;
        check_bool "mem" true su.su_mem;
        check_bool "flags" false su.su_flags);
    Alcotest.test_case "compare and branch touch flags, not memory" `Quick
      (fun () ->
        let su, _ =
          summary_of
            [ i (Isa.Cmp_ri (Isa.r1, 7)); Asm.Jz_l "out"; Asm.Label "out"; i Isa.Halt ]
        in
        check "regs" (reg_bit Isa.r1) su.Tb_cache.su_regs;
        check_bool "mem" false su.su_mem;
        check_bool "flags" true su.su_flags);
  ]

(* -- DIFT fast path over a Table-V workload ------------------------------- *)

let fastpath_tests =
  [
    Alcotest.test_case "steady-state workload mostly skips propagation" `Slow
      (fun () ->
        (* A long-running benign workload converges: images are wholesale
           file-tainted at load, so after each block's first execution the
           fetch touch is a no-op and the fast path takes over.  Also pins
           the accounting invariant hits + misses = engine.instrs. *)
        let store = Faros_dift.Provenance.create_store () in
        Faros_dift.Provenance.set_store store;
        let _, scn = List.hd (Faros_corpus.Perf.workloads ()) in
        let _k, trace = Faros_corpus.Scenario.record scn in
        let metrics = Faros_obs.Metrics.create () in
        let faros = ref None in
        Machine_defaults.with_defaults ~tb:true ~fast:true (fun () ->
            ignore
              (Faros_corpus.Scenario.replay_with scn
                 ~plugins:(fun kernel ->
                   let f = Core.Faros_plugin.create ~metrics kernel in
                   faros := Some f;
                   [ Core.Faros_plugin.plugin f ])
                 trace));
        (match !faros with Some f -> Core.Faros_plugin.finalize f | None -> ());
        let g name =
          Faros_obs.Metrics.gauge_value (Faros_obs.Metrics.gauge metrics name)
        in
        let hits = g "dift.fastpath.hits" and misses = g "dift.fastpath.misses" in
        let instrs =
          Faros_obs.Metrics.counter_value
            (Faros_obs.Metrics.counter metrics "engine.instrs")
        in
        check "every instruction accounted" instrs (hits + misses);
        check_bool "summaries compiled" true (g "dift.fastpath.blocks_summarized" >= 1);
        check_bool "skip rate >= 70%" true
          (float_of_int hits /. float_of_int (max 1 (hits + misses)) >= 0.7));
  ]

(* -- telemetry ------------------------------------------------------------ *)

let stats_tests =
  [
    Alcotest.test_case "steady-state loop hits the cache" `Quick (fun () ->
        (* 100 iterations of a 3-instruction loop: after the first pass
           every instruction is a cache hit. *)
        let cpu, machine =
          run_program
            [
              i (Isa.Mov_ri (Isa.r0, 100));
              Asm.Label "loop";
              i (Isa.Sub_ri (Isa.r0, 1));
              i (Isa.Cmp_ri (Isa.r0, 0));
              Asm.Jnz_l "loop";
              i Isa.Halt;
            ]
        in
        check "loop ran" 0 (Cpu.get cpu Isa.r0);
        let st = Machine.tb_stats machine in
        let total = st.Tb_cache.st_hits + st.Tb_cache.st_misses in
        check "accounted every instruction" cpu.instr_count total;
        check_bool "hit rate >= 90%" true
          (float_of_int st.Tb_cache.st_hits /. float_of_int total >= 0.9));
    Alcotest.test_case "tlb serves repeated translations" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        for _ = 1 to 10 do
          ignore (Mmu.translate machine.mmu ~asid:space.asid 0x1234)
        done;
        let hits, misses = Machine.tlb_stats machine in
        check "one miss fills the slot" 1 misses;
        check "the rest hit" 9 hits);
    Alcotest.test_case "Machine.create captures the defaults" `Quick
      (fun () ->
        Machine_defaults.with_defaults ~tb:true ~fast:true (fun () ->
            let uncached =
              Machine_defaults.with_defaults ~tb:false ~fast:true Machine.create
            and unfast =
              Machine_defaults.with_defaults ~tb:true ~fast:false Machine.create
            in
            (* both defaults read true again: each machine keeps its own *)
            let loop =
              [
                i (Isa.Mov_ri (Isa.r0, 10));
                Asm.Label "loop";
                i (Isa.Sub_ri (Isa.r0, 1));
                i (Isa.Cmp_ri (Isa.r0, 0));
                Asm.Jnz_l "loop";
                i Isa.Halt;
              ]
            in
            let _, uncached = run_on uncached loop in
            let st = Machine.tb_stats uncached in
            check "no blocks" 0 st.Tb_cache.st_blocks;
            check "no TB hits" 0 st.Tb_cache.st_hits;
            check_bool "no fast path without the cache" false
              (Machine.dift_fast_enabled uncached);
            check_bool "fast path stays off" false
              (Machine.dift_fast_enabled unfast)));
    Alcotest.test_case "a Table V replay translates fewer than 64 blocks" `Slow
      (fun () ->
        (* Each program runs a handful of distinct blocks; its syscall
           buffers share pages with its code, so a cache that retired every
           block on a written page would translate hundreds to thousands. *)
        Machine_defaults.with_defaults ~tb:true ~fast:true (fun () ->
            List.iter
              (fun (name, scn) ->
                let _, trace = Faros_corpus.Scenario.record scn in
                let r = Faros_corpus.Scenario.replay_plain scn trace in
                let st = Machine.tb_stats r.kernel.Faros_os.Kstate.machine in
                if st.Tb_cache.st_misses >= 64 then
                  Alcotest.failf "%s: %d translations" name st.Tb_cache.st_misses)
              (Faros_corpus.Perf.workloads ())));
  ]

let () =
  Alcotest.run "tbcache"
    [
      ("smc", smc_tests);
      ("summary", summary_tests);
      ("differential", differential_tests);
      ("fastpath", fastpath_tests);
      ("stats", stats_tests);
    ]

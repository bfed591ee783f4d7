(* Demand-driven DIFT: skip propagation over provably-inert blocks.

   The hardware-DIFT literature decouples tracking from execution by
   precomputing per-block flow summaries and running the tracker only
   when tainted state is in reach; this is the software analogue on top
   of the translation-block cache.  Every cached block carries a
   {!Faros_vm.Tb_cache.summary} compiled at decode time; before handing
   an executed instruction to the engine we ask whether propagating it
   could possibly change shadow state or observer inputs:

   - a register the block names is tainted for its asid        -> run
   - the block touches flags and the flags are tainted         -> run
   - a control-dependency window is open for the asid          -> run
     (every write would pick up the window's provenance)
   - the block's own code bytes are all untainted              -> skip
     (probing each executed access per instruction if it touches
     memory: all clean -> skip that instruction, tainted -> run it)
   - the code bytes are tainted but every one already carries this
     process's tag at the head of its provenance               -> skip
     with the *cached fetch provenance*: the fetch touch has converged
     (prepend of the process tag is a no-op), so propagation would
     change nothing, and observers receive the exact instruction
     provenance the slow path would compute.  Under whole-image file
     tagging this is the common steady state — every loaded image byte
     is file-tainted, so a code-clean test alone would pin all of
     userland to the slow path.
   - anything else — unconverged code taint (the first execution of
     freshly written or injected code: the fetch touch must run so the
     process tag lands on it — code-taint detection, "including
     instruction fetch", is FAROS's core injection signal), or a
     taint-immediates policy with tainted code (immediates inherit the
     code bytes' provenance, so register writes are not no-ops) -> run.

   Skipping is sound because propagation of such an instruction is the
   identity: every register and flag it names is clean so unions are
   empty and writes write empty (a no-op on clean targets — probed per
   access), and the fetch touch either finds untainted bytes or has
   converged.  A skipped instruction still increments the engine's
   instruction counter and still notifies load observers with the same
   (instr_prov, read_prov) the slow path would compute, so metrics,
   detector verdicts and reports are byte-identical either way; the
   four-way differential suite pins this over the corpus.

   Verdicts are cached per block and keyed on {!Shadow.generation},
   which bumps on every shadow mutation — taint created, cleared or
   re-tagged, and control windows opening — so both a cached skip and
   its cached fetch provenance are revalidated whenever the shadow
   moves, while converged hot loops (which mutate nothing) keep their
   verdicts indefinitely.  The cache is an array indexed by the block's
   serial ([b_id]), which the TB cache never reuses: a block retranslated
   after SMC gets a fresh serial, so it cannot pick up its predecessor's
   verdict. *)

type verdict =
  | Run  (* tainted state in reach: full propagation *)
  | Skip  (* code clean; skip if the executed accesses probe clean *)
  | Skip_fetch of Provenance.t array
      (* code tainted but converged: per-entry fetch provenance for the
         observers; skip under the same access probes *)

type t = {
  engine : Engine.t;
  machine : Faros_vm.Machine.t;  (* source of the executing block *)
  mutable gens : int array;  (* b_id -> shadow generation of its verdict, or -1 *)
  mutable verdicts : verdict array;  (* b_id -> cached verdict *)
  mutable hits : int;  (* instructions skipped *)
  mutable misses : int;  (* instructions propagated *)
}

let create ~machine engine =
  {
    engine;
    machine;
    gens = Array.make 256 (-1);
    verdicts = Array.make 256 Run;
    hits = 0;
    misses = 0;
  }

let stats t = (t.hits, t.misses)

(* Every register the summary names must be untainted for the asid; the
   global count short-circuits the per-register probes in the (common)
   fully-clean case. *)
let regs_clean shadow ~asid mask =
  Shadow.tainted_regs shadow = 0
  ||
  let rec go r mask =
    mask = 0
    || ((mask land 1 = 0 || Provenance.is_empty (Shadow.get_reg shadow ~asid r))
       && go (r + 1) (mask lsr 1))
  in
  go 0 mask

(* Code checks are byte-exact because guest images routinely pack data
   buffers (recv targets, key-logger capture space) onto the same 4 KiB
   pages as code: a page probe alone would pin every block on such a page
   to the slow path forever after the first received byte.  Each of the
   block's code spans is one range probe: a page probe that
   short-circuits the all-clean case, and a byte scan only on live pages;
   the verdict is cached until the shadow generation moves. *)
let code_clean shadow (b : Faros_vm.Tb_cache.block) =
  Array.for_all
    (fun (s : Faros_vm.Tb_cache.span) ->
      not (Shadow.range_tainted shadow s.sp_lo (s.sp_hi - s.sp_lo)))
    b.b_spans

(* Has the fetch touch converged — does every tainted code byte already
   carry this process's tag at the head of its provenance, so that
   [touch_byte] (a head prepend) is a no-op on all of them?  If so,
   return the per-entry instruction provenance the slow path would
   compute: the in-order union of each entry's code-byte provenance.
   The process tag's index is looked up once, through
   {!Tag_store.process_index} rather than minting one, so a
   never-converged process creates its tag on the slow path exactly when
   the paper says it should — at its first touch of a tainted byte.  A
   process with no tag yet heads nothing (index -1). *)
let fetch_converged t (b : Faros_vm.Tb_cache.block) =
  let shadow = t.engine.Engine.shadow in
  let proc =
    Option.value ~default:(-1) (Tag_store.process_index t.engine.Engine.store b.b_asid)
  in
  let converged p = Provenance.head_is_process proc p in
  let ok = ref true in
  let provs =
    Array.map
      (fun (e : Faros_vm.Tb_cache.entry) ->
        let acc = ref Provenance.empty in
        if !ok then
          Array.iter
            (fun paddr ->
              let p = Shadow.get_mem shadow paddr in
              if not (Provenance.is_empty p) then
                if converged p then acc := Provenance.union !acc p
                else ok := false)
            e.en_code_paddrs;
        !acc)
      b.b_entries
  in
  if !ok then Some provs else None

let compute_verdict t (b : Faros_vm.Tb_cache.block) =
  let shadow = t.engine.Engine.shadow in
  let asid = b.b_asid in
  let su = b.b_summary in
  if Engine.control_active t.engine ~asid then Run
  else if
    su.su_flags && not (Provenance.is_empty (Shadow.get_flags shadow ~asid))
  then Run
  else if not (regs_clean shadow ~asid su.su_regs) then Run
  else if code_clean shadow b then Skip
  else if t.engine.Engine.policy.Policy.taint_immediates then
    (* Immediates inherit the (tainted) code bytes' provenance, so
       register writes would not be no-ops. *)
    Run
  else match fetch_converged t b with Some provs -> Skip_fetch provs | None -> Run

let verdict_for t (b : Faros_vm.Tb_cache.block) =
  let gen = Shadow.generation t.engine.Engine.shadow and id = b.b_id in
  let cap = Array.length t.gens in
  if id >= cap then begin
    let more = max cap (id + 1 - cap) in
    t.gens <- Array.append t.gens (Array.make more (-1));
    t.verdicts <- Array.append t.verdicts (Array.make more Run)
  end;
  if Array.unsafe_get t.gens id = gen then Array.unsafe_get t.verdicts id
  else begin
    let v = compute_verdict t b in
    t.gens.(id) <- gen;
    t.verdicts.(id) <- v;
    v
  end

(* Accesses are byte-exact for the same page-sharing reason as code; at
   most 8 bytes, so this is a page probe or two plus a short scan. *)
let access_clean shadow (a : Faros_vm.Cpu.mem_access) =
  not (Shadow.range_tainted shadow a.paddr a.width)

let accesses_clean shadow (eff : Faros_vm.Cpu.effect) =
  List.for_all (access_clean shadow) eff.e_loads
  && List.for_all (access_clean shadow) eff.e_stores

(* The executed accesses probe clean (trivially so when the summary says
   the block never touches memory). *)
let effect_clean t (b : Faros_vm.Tb_cache.block) eff =
  (not b.b_summary.su_mem) || accesses_clean t.engine.Engine.shadow eff

let skip t ~instr_prov eff =
  t.hits <- t.hits + 1;
  Engine.on_skipped t.engine ~instr_prov eff

let run t cpu eff =
  t.misses <- t.misses + 1;
  Engine.on_exec t.engine cpu eff

let on_exec t cpu (eff : Faros_vm.Cpu.effect) =
  match t.machine.Faros_vm.Machine.cur_block with
  | Some b when b.b_valid && b.b_asid = eff.e_asid -> (
    match verdict_for t b with
    | Run -> run t cpu eff
    | Skip ->
      if effect_clean t b eff then skip t ~instr_prov:Provenance.empty eff
      else run t cpu eff
    | Skip_fetch provs ->
      (* The machine's cursor has already advanced past the entry it just
         executed; re-anchor on the effect's pc in case a hook moved it. *)
      let idx = t.machine.Faros_vm.Machine.cur_idx - 1 in
      if
        idx >= 0
        && idx < Array.length provs
        && (Array.unsafe_get b.b_entries idx).en_pc = eff.e_pc
        && effect_clean t b eff
      then skip t ~instr_prov:(Array.unsafe_get provs idx) eff
      else run t cpu eff)
  | _ ->
    (* Uncached execution (cold translation failure, cache disabled) has
       no summary: always propagate. *)
    run t cpu eff

(* Tests for the VM substrate: words, instruction encoding, the assembler,
   physical memory, the MMU and the CPU's execution semantics. *)

open Faros_vm

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- word ---------------------------------------------------------------- *)

let word_tests =
  [
    Alcotest.test_case "mask wraps" `Quick (fun () ->
        check "of_int" 0 (Word.of_int 0x100000000);
        check "add wraps" 0 (Word.add 0xFFFFFFFF 1);
        check "sub wraps" 0xFFFFFFFF (Word.sub 0 1));
    Alcotest.test_case "signed reinterpretation" `Quick (fun () ->
        check "negative" (-1) (Word.to_signed 0xFFFFFFFF);
        check "positive" 5 (Word.to_signed 5);
        check "min int" (-0x80000000) (Word.to_signed 0x80000000));
    Alcotest.test_case "shifts saturate at 32" `Quick (fun () ->
        check "shl 32" 0 (Word.shift_left 1 32);
        check "shr 32" 0 (Word.shift_right 0xFFFFFFFF 32);
        check "shl 31" 0x80000000 (Word.shift_left 1 31));
    Alcotest.test_case "truncate widths" `Quick (fun () ->
        check "w1" 0xEF (Word.truncate ~width:1 0xDEADBEEF);
        check "w2" 0xBEEF (Word.truncate ~width:2 0xDEADBEEF);
        check "w4" 0xDEADBEEF (Word.truncate ~width:4 0xDEADBEEF));
    Alcotest.test_case "logical ops mask" `Quick (fun () ->
        check "lognot" 0xFFFFFFFE (Word.lognot 1);
        check "xor" 0 (Word.logxor 0xAAAAAAAA 0xAAAAAAAA));
  ]

(* -- encode / decode ----------------------------------------------------- *)

let arb_reg = QCheck.Gen.int_range 0 (Isa.num_regs - 1)

let arb_addr =
  QCheck.Gen.(
    let* base = opt arb_reg in
    let* index = opt arb_reg in
    let* scale = oneofl [ 1; 2; 4 ] in
    let* disp = int_range 0 0xFFFFFF in
    return { Isa.base; index; scale; disp })

let arb_width = QCheck.Gen.oneofl [ 1; 2; 4 ]

let arb_instr : Isa.t QCheck.Gen.t =
  QCheck.Gen.(
    let* imm = int_range 0 0xFFFFFF in
    let* r1 = arb_reg in
    let* r2 = arb_reg in
    let* a = arb_addr in
    let* w = arb_width in
    let* sh = int_range 0 31 in
    oneofl
      [
        Isa.Nop;
        Halt;
        Mov_ri (r1, imm);
        Mov_rr (r1, r2);
        Load (w, r1, a);
        Store (w, a, r1);
        Lea (r1, a);
        Push r1;
        Pop r1;
        Add_rr (r1, r2);
        Add_ri (r1, imm);
        Sub_rr (r1, r2);
        Sub_ri (r1, imm);
        Mul_rr (r1, r2);
        And_rr (r1, r2);
        And_ri (r1, imm);
        Or_rr (r1, r2);
        Or_ri (r1, imm);
        Xor_rr (r1, r2);
        Xor_ri (r1, imm);
        Shl_ri (r1, sh);
        Shr_ri (r1, sh);
        Shl_rr (r1, r2);
        Shr_rr (r1, r2);
        Not_r r1;
        Cmp_rr (r1, r2);
        Cmp_ri (r1, imm);
        Test_rr (r1, r2);
        Jmp imm;
        Jz imm;
        Jnz imm;
        Jl imm;
        Jge imm;
        Jg imm;
        Jle imm;
        Call imm;
        Call_r r1;
        Jmp_r r1;
        Ret;
        Syscall;
        Int3;
      ])

let roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"encode/decode roundtrip"
    (QCheck.make arb_instr) (fun i ->
      let b = Encode.to_bytes i in
      let i', len = Decode.of_bytes b 0 in
      i = i' && len = Bytes.length b)

let length_prop =
  QCheck.Test.make ~count:500 ~name:"Encode.length matches emitted bytes"
    (QCheck.make arb_instr) (fun i ->
      Encode.length i = Bytes.length (Encode.to_bytes i))

let hex b =
  String.concat " "
    (List.init (Bytes.length b) (fun k -> Printf.sprintf "%02x" (Char.code (Bytes.get b k))))

(* One row per constructor (and per load/store width): the exact bytes
   and listing text.  The operands cover every scale, base and index
   present and absent, and the sp/bp register names. *)
let pinned_encodings : (Isa.t * string * string) list =
  let open Isa in
  [
    (Nop, "00", "nop");
    (Halt, "01", "halt");
    (Mov_ri (r1, 0x2a), "02 01 2a 00 00 00", "mov r1, 0x2a");
    (Mov_rr (sp, bp), "03 08 09", "mov sp, bp");
    (Load (1, r0, abs 0x1234), "04 00 00 00 00 34 12 00 00", "load1 r0, [0x1234]");
    (Load (2, r2, based ~disp:8 bp), "05 02 01 09 00 08 00 00 00", "load2 r2, [bp+0x8]");
    (Load (4, r3, indexed ~scale:2 r4), "06 03 06 00 04 00 00 00 00", "load4 r3, [r4*2]");
    ( Store (1, indexed ~base:sp ~scale:4 ~disp:0x10 r5, r6),
      "07 0b 08 05 10 00 00 00 06",
      "store1 [sp+r5*4+0x10], r6" );
    (Store (2, based sp, r7), "08 01 08 00 00 00 00 00 07", "store2 [sp], r7");
    (Store (4, abs 0xdeadbeef, bp), "09 00 00 00 ef be ad de 09", "store4 [0xdeadbeef], bp");
    (Lea (r1, indexed ~base:r2 ~scale:1 r3), "0a 01 03 02 03 00 00 00 00", "lea r1, [r2+r3]");
    (Push bp, "0b 09", "push bp");
    (Pop r7, "0c 07", "pop r7");
    (Add_rr (r0, r1), "10 00 01", "add r0, r1");
    (Add_ri (r2, 0x10), "11 02 10 00 00 00", "add r2, 0x10");
    (Sub_rr (r3, r4), "12 03 04", "sub r3, r4");
    (Sub_ri (sp, 4), "13 08 04 00 00 00", "sub sp, 0x4");
    (Mul_rr (r5, r6), "14 05 06", "mul r5, r6");
    (And_rr (r7, r0), "15 07 00", "and r7, r0");
    (And_ri (r1, 0xff), "16 01 ff 00 00 00", "and r1, 0xff");
    (Or_rr (r2, r3), "17 02 03", "or r2, r3");
    (Or_ri (r4, 0x80000000), "18 04 00 00 00 80", "or r4, 0x80000000");
    (Xor_rr (r5, r5), "19 05 05", "xor r5, r5");
    (Xor_ri (r6, 0x12345678), "1a 06 78 56 34 12", "xor r6, 0x12345678");
    (Shl_ri (r7, 31), "1b 07 1f 00 00 00", "shl r7, 0x1f");
    (Shr_ri (r0, 1), "1c 00 01 00 00 00", "shr r0, 0x1");
    (Shl_rr (r1, r2), "1e 01 02", "shl r1, r2");
    (Shr_rr (r3, r4), "1f 03 04", "shr r3, r4");
    (Not_r r5, "1d 05", "not r5");
    (Cmp_rr (r6, r7), "20 06 07", "cmp r6, r7");
    (Cmp_ri (bp, 0), "21 09 00 00 00 00", "cmp bp, 0x0");
    (Test_rr (r0, sp), "22 00 08", "test r0, sp");
    (Jmp 0x400000, "30 00 00 40 00", "jmp 0x400000");
    (Jz 0x401000, "31 00 10 40 00", "jz 0x401000");
    (Jnz 0x10, "32 10 00 00 00", "jnz 0x10");
    (Jl 0x7ffe0000, "33 00 00 fe 7f", "jl 0x7ffe0000");
    (Jge 0xffffffff, "34 ff ff ff ff", "jge 0xffffffff");
    (Jg 0x1, "35 01 00 00 00", "jg 0x1");
    (Jle 0x80000000, "36 00 00 00 80", "jle 0x80000000");
    (Call 0x401234, "40 34 12 40 00", "call 0x401234");
    (Call_r r2, "41 02", "call r2");
    (Jmp_r r3, "42 03", "jmp r3");
    (Ret, "43", "ret");
    (Syscall, "50", "syscall");
    (Int3, "51", "int3");
  ]

(* [load4 r1, [r200]] and [load4 r1, [r200*1]]: address operands naming a
   register the machine does not have. *)
let bad_base = "\x06\x01\x01\xc8\x00\x00\x00\x00\x00"
let bad_index = "\x06\x01\x02\x00\xc8\x00\x00\x00\x00"

(* Any opcode byte the ISA defines or nearly defines, then eight operand
   bytes drawn half the time from small values, so register bytes land on
   both sides of [Isa.num_regs]. *)
let gen_code =
  QCheck.Gen.(
    let* op = int_range 0 0x51 in
    let* rest = list_repeat 8 (oneof [ int_range 0 15; int_range 0 255 ]) in
    return (Bytes.init 9 (fun k -> Char.chr (List.nth (op :: rest) k))))

let decode_total_prop =
  QCheck.Test.make ~count:2000 ~name:"decoding and executing any bytes never raises"
    (QCheck.make ~print:hex gen_code) (fun code ->
      match Decode.of_bytes code 0 with
      | exception Decode.Invalid_opcode _ -> true
      | instr, len -> (
        let mmu = Mmu.create (Phys_mem.create ()) in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x1000 ~pages:1;
        Mmu.write_bytes mmu ~asid:s.asid 0x1000 code;
        let cpu = Cpu.create ~cr3:s.asid ~pc:0x1000 ~sp:0x1800 in
        match Cpu.exec cpu mmu ~instr ~len with Ok _ | Error _ -> true))

let encode_tests =
  [
    Alcotest.test_case "invalid opcode rejected" `Quick (fun () ->
        Alcotest.check_raises "0xFF"
          (Decode.Invalid_opcode 0xFF)
          (fun () -> ignore (Decode.of_bytes (Bytes.of_string "\xFF") 0)));
    Alcotest.test_case "bad register rejected by encoder" `Quick (fun () ->
        match Encode.to_bytes (Isa.Push 12) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "scaled-index-base encodes scale" `Quick (fun () ->
        let a = Isa.indexed ~base:Isa.r1 ~scale:4 Isa.r2 in
        let i = Isa.Load (4, Isa.r0, a) in
        let i', _ = Decode.of_bytes (Encode.to_bytes i) 0 in
        Alcotest.(check bool) "roundtrip" true (i = i'));
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest length_prop;
    Alcotest.test_case "pinned bytes and listing per constructor" `Quick (fun () ->
        List.iter
          (fun (instr, bytes, text) ->
            let b = Encode.to_bytes instr in
            Alcotest.(check string) text bytes (hex b);
            Alcotest.(check string) bytes text (Disasm.to_string instr);
            let i', len = Decode.of_bytes b 0 in
            check_bool (text ^ " decodes back") true (i' = instr);
            check (text ^ " length") (Bytes.length b) len;
            check (text ^ " Encode.length") (Bytes.length b) (Encode.length instr))
          pinned_encodings);
    Alcotest.test_case "out-of-range address register is a decode fault" `Quick
      (fun () ->
        Alcotest.check_raises "base" (Decode.Invalid_opcode 0xc8) (fun () ->
            ignore (Decode.of_bytes (Bytes.of_string bad_base) 0));
        Alcotest.check_raises "index" (Decode.Invalid_opcode 0xc8) (fun () ->
            ignore (Decode.of_bytes (Bytes.of_string bad_index) 0)));
    Alcotest.test_case "out-of-range address register faults on both machine paths"
      `Quick (fun () ->
        List.iter
          (fun tb ->
            List.iter
              (fun code ->
                let machine = Machine_defaults.with_defaults ~tb ~fast:true Machine.create in
                let space = Mmu.create_space machine.mmu ~name:"t" in
                Mmu.map machine.mmu space ~vaddr:0x400000 ~pages:1;
                Mmu.write_bytes machine.mmu ~asid:space.asid 0x400000 (Bytes.of_string code);
                let cpu = Cpu.create ~cr3:space.asid ~pc:0x400000 ~sp:0 in
                match Machine.step machine cpu with
                | Error (Cpu.Fault_decode pc) -> check "faulting pc" 0x400000 pc
                | Error f -> Alcotest.failf "tb=%b: wrong fault %a" tb Cpu.pp_fault f
                | Ok _ -> Alcotest.failf "tb=%b: executed %s" tb (hex (Bytes.of_string code)))
              [ bad_base; bad_index ])
          [ true; false ]);
    Alcotest.test_case "encoder refuses an out-of-range address register" `Quick
      (fun () ->
        List.iter
          (fun a ->
            match Encode.to_bytes (Isa.Load (4, Isa.r1, a)) with
            | exception Invalid_argument _ -> ()
            | b -> Alcotest.failf "encoded as %s" (hex b))
          [ Isa.based 12; Isa.indexed ~scale:1 12 ]);
    QCheck_alcotest.to_alcotest decode_total_prop;
  ]

(* -- assembler ----------------------------------------------------------- *)

let asm_tests =
  [
    Alcotest.test_case "labels resolve forward and back" `Quick (fun () ->
        let prog =
          Asm.assemble ~origin:0x1000
            [
              Asm.Label "a";
              Asm.Jmp_l "b";
              Asm.Label "b";
              Asm.Jmp_l "a";
            ]
        in
        check "a" 0x1000 (Asm.lookup prog "a");
        check "b" 0x1005 (Asm.lookup prog "b");
        let i, _ = Decode.of_bytes prog.code 0 in
        Alcotest.(check bool) "jmp to b" true (i = Isa.Jmp 0x1005));
    Alcotest.test_case "duplicate label rejected" `Quick (fun () ->
        Alcotest.check_raises "dup" (Asm.Duplicate_label "x") (fun () ->
            ignore (Asm.assemble ~origin:0 [ Asm.Label "x"; Asm.Label "x" ])));
    Alcotest.test_case "undefined label rejected" `Quick (fun () ->
        Alcotest.check_raises "undef" (Asm.Undefined_label "nope") (fun () ->
            ignore (Asm.assemble ~origin:0 [ Asm.Jmp_l "nope" ])));
    Alcotest.test_case "align pads to boundary" `Quick (fun () ->
        let prog =
          Asm.assemble ~origin:0
            [ Asm.Bytes "abc"; Asm.Align 4; Asm.Label "here"; Asm.U32 7 ]
        in
        check "here" 4 (Asm.lookup prog "here");
        check "len" 8 (Asm.length prog));
    Alcotest.test_case "align at boundary is a no-op" `Quick (fun () ->
        let prog =
          Asm.assemble ~origin:0 [ Asm.Bytes "abcd"; Asm.Align 4; Asm.Label "x" ]
        in
        check "x" 4 (Asm.lookup prog "x"));
    Alcotest.test_case "u32_label emits the address" `Quick (fun () ->
        let prog =
          Asm.assemble ~origin:0x400000
            [ Asm.U32_label "t"; Asm.Label "t"; Asm.Bytes "z" ]
        in
        let v =
          Char.code (Bytes.get prog.code 0)
          lor (Char.code (Bytes.get prog.code 1) lsl 8)
          lor (Char.code (Bytes.get prog.code 2) lsl 16)
          lor (Char.code (Bytes.get prog.code 3) lsl 24)
        in
        check "value" 0x400004 v);
    Alcotest.test_case "space emits zeros" `Quick (fun () ->
        let prog = Asm.assemble ~origin:0 [ Asm.Space 5 ] in
        check "len" 5 (Asm.length prog);
        Bytes.iter (fun c -> check "zero" 0 (Char.code c)) prog.code);
    Alcotest.test_case "mov_label loads label address" `Quick (fun () ->
        let prog =
          Asm.assemble ~origin:0x100
            [ Asm.Mov_label (Isa.r3, "d"); Asm.Label "d"; Asm.U32 0 ]
        in
        let i, _ = Decode.of_bytes prog.code 0 in
        Alcotest.(check bool) "mov" true (i = Isa.Mov_ri (Isa.r3, 0x106)));
  ]

(* -- physical memory and MMU ---------------------------------------------- *)

let mem_tests =
  [
    Alcotest.test_case "frame allocation is zeroed" `Quick (fun () ->
        let m = Phys_mem.create () in
        let pfn = Phys_mem.alloc_frame m in
        check "zero" 0 (Phys_mem.read_u8 m (pfn * Phys_mem.page_size)));
    Alcotest.test_case "read/write widths little-endian" `Quick (fun () ->
        let m = Phys_mem.create () in
        let _ = Phys_mem.alloc_frame m in
        Phys_mem.write ~width:4 m 0 0xDEADBEEF;
        check "u8" 0xEF (Phys_mem.read_u8 m 0);
        check "u16" 0xBEEF (Phys_mem.read ~width:2 m 0);
        check "u32" 0xDEADBEEF (Phys_mem.read ~width:4 m 0));
    Alcotest.test_case "bad frame raises" `Quick (fun () ->
        let m = Phys_mem.create () in
        Alcotest.check_raises "bad" (Phys_mem.Bad_frame 9) (fun () ->
            ignore (Phys_mem.read_u8 m (9 * Phys_mem.page_size))));
    Alcotest.test_case "mmu translate and page fault" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x400000 ~pages:2;
        Mmu.write_u8 mmu ~asid:s.asid 0x400005 0xAB;
        check "read" 0xAB (Mmu.read_u8 mmu ~asid:s.asid 0x400005);
        Alcotest.check_raises "fault"
          (Mmu.Page_fault { asid = s.asid; vaddr = 0x500000 })
          (fun () -> ignore (Mmu.read_u8 mmu ~asid:s.asid 0x500000)));
    Alcotest.test_case "cross-page access" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x400000 ~pages:2;
        let boundary = 0x400000 + Phys_mem.page_size - 2 in
        Mmu.write ~width:4 mmu ~asid:s.asid boundary 0x11223344;
        check "read back" 0x11223344 (Mmu.read ~width:4 mmu ~asid:s.asid boundary));
    Alcotest.test_case "shared frames alias across spaces" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let a = Mmu.create_space mmu ~name:"a" in
        let b = Mmu.create_space mmu ~name:"b" in
        Mmu.map mmu a ~vaddr:0x1000 ~pages:1;
        Mmu.map_frames mmu b ~vaddr:0x8000 (Mmu.frames_of a ~vaddr:0x1000 ~pages:1);
        Mmu.write_u8 mmu ~asid:a.asid 0x1004 0x42;
        check "alias" 0x42 (Mmu.read_u8 mmu ~asid:b.asid 0x8004);
        check "same phys" (Mmu.translate mmu ~asid:a.asid 0x1004)
          (Mmu.translate mmu ~asid:b.asid 0x8004));
    Alcotest.test_case "unmap removes pages" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x1000 ~pages:1;
        Mmu.unmap mmu s ~vaddr:0x1000 ~pages:1;
        check_bool "unmapped" false (Mmu.is_mapped s ~vaddr:0x1000));
    Alcotest.test_case "mapped_ranges coalesces" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x1000 ~pages:2;
        Mmu.map mmu s ~vaddr:0x5000 ~pages:1;
        let ranges = Mmu.mapped_ranges s in
        Alcotest.(check (list (pair int int)))
          "ranges"
          [ (0x1000, 2 * Phys_mem.page_size); (0x5000, Phys_mem.page_size) ]
          ranges);
    Alcotest.test_case "phys_range is byte exact" `Quick (fun () ->
        let m = Phys_mem.create () in
        let mmu = Mmu.create m in
        let s = Mmu.create_space mmu ~name:"p" in
        Mmu.map mmu s ~vaddr:0x1000 ~pages:1;
        let es = Mmu.extents mmu ~asid:s.asid 0x1000 4 in
        check "len" 4 (Extent.total es);
        let bytes = ref [] in
        Extent.iter (fun pa -> bytes := pa :: !bytes) es;
        Alcotest.(check (list int))
          "paddrs"
          (List.init 4 (fun i -> Mmu.translate mmu ~asid:s.asid (0x1000 + i)))
          (List.rev !bytes));
  ]

(* -- page-wise host copies against per-byte references -------------------- *)

(* Random layouts of a six-page virtual region: unmapped holes, fresh
   frames, and frames of a pool shared in with [map_frames] — scattered,
   repeated, or the frame physically after the previous slot's.  Some pool
   frames are marked as code.  Ranges start anywhere from a page below the
   region to its end and run up to three pages, so they cross pages and
   holes. *)
type slot = Hole | Fresh | Frame of int

let pool = 6
let region = 0x10000
let region_pages = 6
let page = Mmu.page_size

let gen_layout =
  let open QCheck.Gen in
  let rec go n prev =
    if n = 0 then return []
    else
      frequency
        [
          (1, return Hole);
          (2, return Fresh);
          (2, map (fun k -> Frame k) (int_bound (pool - 1)));
          (3, return (Frame ((prev + 1) mod pool)));
        ]
      >>= fun slot ->
      let prev = match slot with Frame k -> k | Hole | Fresh -> prev in
      map (fun rest -> slot :: rest) (go (n - 1) prev)
  in
  go region_pages (-1)

type copy_case = {
  layout : slot list;
  code : bool list;  (* per pool frame *)
  start : int;
  data : string;  (* what a write copies in; its length is the range's *)
}

let gen_copy_case =
  let open QCheck.Gen in
  let* layout = gen_layout in
  let* code = list_repeat pool bool in
  let* start = int_range (region - page) (region + (region_pages * page)) in
  let* len = frequency [ (1, int_bound 8); (3, int_bound (3 * page)) ] in
  let+ data = string_size ~gen:char (return len) in
  { layout; code; start; data }

let print_copy_case c =
  let slot = function
    | Hole -> "hole"
    | Fresh -> "fresh"
    | Frame k -> Printf.sprintf "frame%d" k
  in
  Printf.sprintf "layout=[%s] code=[%s] start=%#x len=%d"
    (String.concat "; " (List.map slot c.layout))
    (String.concat "; " (List.map string_of_bool c.code))
    c.start (String.length c.data)

(* Build a case's layout on a fresh machine.  Pool frames carry distinct
   contents so a misplaced byte shows.  The SMC hook records each reported
   range (paddr, len) and leaves the mark, so every write onto a code
   frame is reported. *)
let build_layout c =
  let mem = Phys_mem.create () in
  let mmu = Mmu.create mem in
  let pool_space = Mmu.create_space mmu ~name:"pool" in
  Mmu.map mmu pool_space ~vaddr:0 ~pages:pool;
  let pfns = Array.of_list (Mmu.frames_of pool_space ~vaddr:0 ~pages:pool) in
  Array.iteri
    (fun k pfn ->
      let f = Phys_mem.frame mem pfn in
      Bytes.iteri (fun off _ -> Bytes.set f off (Char.chr (((k * 37) + off) land 0xFF))) f)
    pfns;
  let s = Mmu.create_space mmu ~name:"p" in
  List.iteri
    (fun i slot ->
      let vaddr = region + (i * page) in
      match slot with
      | Hole -> ()
      | Fresh -> Mmu.map mmu s ~vaddr ~pages:1
      | Frame k -> Mmu.map_frames mmu s ~vaddr [ pfns.(k) ])
    c.layout;
  List.iteri (fun k is_code -> if is_code then Mmu.mark_code_page mmu pfns.(k)) c.code;
  let reported = ref [] in
  Mmu.set_smc_hooks mmu
    ~on_code_write:(fun paddr len -> reported := (paddr, len) :: !reported)
    ~on_mapping_change:ignore;
  (mem, mmu, s.asid, reported, pfns)

(* [f] at each of [len] addresses from [start], or the vaddr that faulted. *)
let per_byte f start len =
  let rec go i acc =
    if i >= len then Ok (List.rev acc)
    else
      match f (start + i) with
      | v -> go (i + 1) (v :: acc)
      | exception Mmu.Page_fault { vaddr; _ } -> Error vaddr
  in
  go 0 []

let faulting f = match f () with v -> Ok v | exception Mmu.Page_fault { vaddr; _ } -> Error vaddr

let expand es =
  let acc = ref [] in
  Extent.iter (fun pa -> acc := pa :: !acc) es;
  List.rev !acc

let contents mem = List.init (Phys_mem.frame_count mem) (fun pfn -> Bytes.to_string (Phys_mem.frame mem pfn))

let extents_prop =
  QCheck.Test.make ~count:500 ~name:"extents expand to the per-byte translations"
    (QCheck.make ~print:print_copy_case gen_copy_case) (fun c ->
      let _, mmu, asid, _, _ = build_layout c in
      let len = String.length c.data in
      let es = faulting (fun () -> Mmu.extents mmu ~asid c.start len) in
      Result.map expand es = per_byte (Mmu.translate mmu ~asid) c.start len
      && (* merged: no two neighbours are physically adjacent, none empty *)
      match es with
      | Error _ -> true
      | Ok es ->
        let rec merged = function
          | (a : Extent.t) :: (b :: _ as rest) -> a.paddr + a.len <> b.paddr && merged rest
          | [ a ] -> a.len > 0
          | [] -> true
        in
        merged es && List.for_all (fun (e : Extent.t) -> e.len > 0) es)

let read_bytes_prop =
  QCheck.Test.make ~count:500 ~name:"read_bytes matches per-byte read_u8"
    (QCheck.make ~print:print_copy_case gen_copy_case) (fun c ->
      let _, mmu, asid, _, _ = build_layout c in
      let len = String.length c.data in
      Result.map
        (fun b -> List.init len (fun i -> Char.code (Bytes.get b i)))
        (faulting (fun () -> Mmu.read_bytes mmu ~asid c.start len))
      = per_byte (Mmu.read_u8 mmu ~asid) c.start len)

let write_bytes_prop =
  QCheck.Test.make ~count:500
    ~name:"write_bytes matches per-byte write_u8: bytes, fault, prefix, SMC"
    (QCheck.make ~print:print_copy_case gen_copy_case) (fun c ->
      let mem_a, mmu_a, asid, reported_a, pfns = build_layout c in
      let mem_b, mmu_b, _, reported_b, _ = build_layout c in
      let len = String.length c.data in
      let res_a =
        faulting (fun () -> Mmu.write_bytes mmu_a ~asid c.start (Bytes.of_string c.data))
      in
      let res_b =
        Result.map ignore
          (per_byte
             (fun va -> Mmu.write_u8 mmu_b ~asid va (Char.code c.data.[va - c.start]))
             c.start len)
      in
      (* the code frames under the bytes the reference wrote *)
      let written =
        match per_byte (Mmu.translate mmu_b ~asid) c.start len with
        | Ok ps -> ps
        | Error fault -> (
          match per_byte (Mmu.translate mmu_b ~asid) c.start (fault - c.start) with
          | Ok ps -> ps
          | Error _ -> [])
      in
      let code_frame pfn =
        List.filteri (fun k _ -> pfns.(k) = pfn) c.code = [ true ]
      in
      let code_written = List.filter (fun pa -> code_frame (pa lsr Mmu.page_shift)) written in
      let covered reported =
        List.concat_map (fun (pa, n) -> List.init n (fun i -> pa + i)) (List.rev reported)
      in
      (* each range lies on one code frame *)
      let on_code_frame (pa, n) =
        n > 0
        && code_frame (pa lsr Mmu.page_shift)
        && (pa + n - 1) lsr Mmu.page_shift = pa lsr Mmu.page_shift
      in
      res_a = res_b
      && contents mem_a = contents mem_b
      && List.for_all on_code_frame !reported_a
      && covered !reported_a = code_written
      && covered !reported_b = code_written)

(* -- demand-zero frames against a per-byte model --------------------------- *)

(* Random operations over a few frames.  Every frame is mapped into two
   spaces with [map_frames]: space a maps frame k at [za + k * page],
   space b at [zb - (k + 1) * page], so a range crossing pages in b walks
   the frames downwards.  Positions are taken modulo what the current
   frames cover, so every access lands. *)
type zero_op =
  | Alloc
  | Write_u8 of int * int  (* physical position, value *)
  | Write of bool * int * int * int  (* in b, position, width, value *)
  | Write_bytes of bool * int * string
  | Read_bytes of bool * int * int  (* in b, position, length *)
  | Read_u8 of int
  | Frame_set of int * int  (* [Bytes.set] on [Phys_mem.frame] *)

let za = 0x100000
let zb = 0x800000

let gen_zero_ops =
  let open QCheck.Gen in
  let pos = int_bound (1 lsl 20) and byte = int_bound 255 and in_b = bool in
  let len = frequency [ (2, int_range 1 8); (1, int_range 1 (2 * page)) ] in
  let op =
    frequency
      [
        (1, return Alloc);
        (2, map2 (fun p v -> Write_u8 (p, v)) pos byte);
        ( 2,
          let* b = in_b and* p = pos and* w = oneofl [ 1; 2; 4 ] in
          let+ v = int_bound 0xFFFFFFFF in
          Write (b, p, w, v) );
        ( 2,
          let* b = in_b and* p = pos in
          let+ data = string_size ~gen:char len in
          Write_bytes (b, p, data) );
        (3, map3 (fun b p n -> Read_bytes (b, p, n)) in_b pos len);
        (2, map (fun p -> Read_u8 p) pos);
        (2, map2 (fun p v -> Frame_set (p, v)) pos byte);
      ]
  in
  list_size (int_range 1 40) op

let print_zero_op = function
  | Alloc -> "alloc"
  | Write_u8 (p, v) -> Printf.sprintf "write_u8 %d %d" p v
  | Write (b, p, w, v) -> Printf.sprintf "write %b %d ~width:%d %#x" b p w v
  | Write_bytes (b, p, d) -> Printf.sprintf "write_bytes %b %d len=%d" b p (String.length d)
  | Read_bytes (b, p, n) -> Printf.sprintf "read_bytes %b %d %d" b p n
  | Read_u8 p -> Printf.sprintf "read_u8 %d" p
  | Frame_set (p, v) -> Printf.sprintf "frame_set %d %d" p v

let demand_zero_prop =
  QCheck.Test.make ~count:300 ~name:"demand-zero frames match a per-byte model"
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map print_zero_op ops))
       gen_zero_ops)
    (fun ops ->
      let mem = Phys_mem.create () in
      let mmu = Mmu.create mem in
      let a = Mmu.create_space mmu ~name:"a" and b = Mmu.create_space mmu ~name:"b" in
      let model = Hashtbl.create 64 (* paddr -> byte; absent reads 0 *)
      and touched = Hashtbl.create 8 (* frames a write or [frame] reached *) in
      let frames = ref 0 in
      let alloc () =
        let pfn = Phys_mem.alloc_frame mem in
        Mmu.map_frames mmu a ~vaddr:(za + (pfn * page)) [ pfn ];
        Mmu.map_frames mmu b ~vaddr:(zb - ((pfn + 1) * page)) [ pfn ];
        frames := pfn + 1
      in
      alloc ();
      alloc ();
      let expect paddr = Option.value ~default:0 (Hashtbl.find_opt model paddr) in
      let set paddr v =
        Hashtbl.replace model paddr (v land 0xFF);
        Hashtbl.replace touched (paddr / page) ()
      in
      let paddr_of in_b va =
        if in_b then
          let k = (zb - 1 - va) / page in
          (k * page) + (va - (zb - ((k + 1) * page)))
        else va - za
      in
      (* a virtual range of [n] bytes inside the mapped frames *)
      let range in_b p n =
        let span = !frames * page in
        let n = min n span in
        let lo = if in_b then zb - span else za in
        (lo + (p mod (span - n + 1)), n)
      in
      let asid in_b = if in_b then b.asid else a.asid in
      let ok = ref true in
      List.iter
        (fun op ->
          let phys p = p mod (!frames * page) in
          match op with
          | Alloc -> alloc ()
          | Write_u8 (p, v) ->
            Phys_mem.write_u8 mem (phys p) v;
            set (phys p) v
          | Write (in_b, p, width, v) ->
            let va, width = range in_b p width in
            Mmu.write ~width mmu ~asid:(asid in_b) va v;
            for i = 0 to width - 1 do
              set (paddr_of in_b (va + i)) (v lsr (8 * i))
            done
          | Write_bytes (in_b, p, data) ->
            let va, n = range in_b p (String.length data) in
            Mmu.write_bytes mmu ~asid:(asid in_b) va (Bytes.of_string (String.sub data 0 n));
            String.iteri (fun i c -> if i < n then set (paddr_of in_b (va + i)) (Char.code c)) data
          | Read_bytes (in_b, p, n) ->
            let va, n = range in_b p n in
            let got = Mmu.read_bytes mmu ~asid:(asid in_b) va n in
            Bytes.iteri
              (fun i c -> if Char.code c <> expect (paddr_of in_b (va + i)) then ok := false)
              got
          | Read_u8 p -> if Phys_mem.read_u8 mem (phys p) <> expect (phys p) then ok := false
          | Frame_set (p, v) ->
            let paddr = phys p in
            Bytes.set (Phys_mem.frame mem (paddr / page)) (paddr mod page) (Char.chr v);
            set paddr v)
        ops;
      for paddr = 0 to (!frames * page) - 1 do
        if Phys_mem.read_u8 mem paddr <> expect paddr then ok := false
      done;
      let fresh = Phys_mem.create () in
      let pfn = Phys_mem.alloc_frame fresh in
      let fresh_zero = ref true in
      for off = 0 to page - 1 do
        if Phys_mem.read_u8 fresh ((pfn * page) + off) <> 0 then fresh_zero := false
      done;
      !ok
      && Phys_mem.frame_count mem = !frames
      && Phys_mem.resident_frames mem = Hashtbl.length touched
      && !fresh_zero)

let copy_prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [ extents_prop; read_bytes_prop; write_bytes_prop; demand_zero_prop ]

(* -- CPU ------------------------------------------------------------------ *)

(* Run [items] to completion on a fresh machine; returns (cpu, machine,
   space). *)
let exec ?(max_steps = 10_000) items =
  let machine = Machine.create () in
  let space = Mmu.create_space machine.mmu ~name:"t" in
  Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:4;
  Mmu.map machine.mmu space ~vaddr:0x7F000 ~pages:4;
  let prog = Asm.assemble ~origin:0x1000 items in
  Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
  let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:(0x7F000 + 0x3FF0) in
  let rec go n =
    if n >= max_steps then Alcotest.fail "program did not halt"
    else
      match Machine.step machine cpu with
      | Ok _ when cpu.halted -> ()
      | Ok _ -> go (n + 1)
      | Error f -> Alcotest.failf "fault: %a" Cpu.pp_fault f
  in
  go 0;
  (cpu, machine, space)

let i x = Asm.I x

let cpu_tests =
  [
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 7));
              i (Isa.Mov_ri (Isa.r1, 5));
              i (Isa.Add_rr (Isa.r0, Isa.r1));
              i (Isa.Mul_rr (Isa.r0, Isa.r1));
              i (Isa.Sub_ri (Isa.r0, 10));
              i Isa.Halt;
            ]
        in
        check "r0" 50 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "logic and shifts" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0xF0));
              i (Isa.Or_ri (Isa.r0, 0x0F));
              i (Isa.Shl_ri (Isa.r0, 8));
              i (Isa.Shr_ri (Isa.r0, 4));
              i (Isa.And_ri (Isa.r0, 0xFF0));
              i (Isa.Not_r Isa.r0);
              i Isa.Halt;
            ]
        in
        check "r0" (Word.lognot 0xFF0) (Cpu.get cpu Isa.r0));
    Alcotest.test_case "xor self zeroes" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r2, 123));
              i (Isa.Xor_rr (Isa.r2, Isa.r2));
              i Isa.Halt;
            ]
        in
        check "r2" 0 (Cpu.get cpu Isa.r2));
    Alcotest.test_case "load/store with scaled index" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r1, 0x2000));
              i (Isa.Mov_ri (Isa.r2, 3));
              i (Isa.Mov_ri (Isa.r3, 0xAB));
              i (Isa.Store (1, Isa.indexed ~base:Isa.r1 ~scale:4 Isa.r2, Isa.r3));
              i (Isa.Load (1, Isa.r4, Isa.abs (0x2000 + 12)));
              i Isa.Halt;
            ]
        in
        check "r4" 0xAB (Cpu.get cpu Isa.r4));
    Alcotest.test_case "store truncates to width" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r1, 0x11223344));
              i (Isa.Store (2, Isa.abs 0x2000, Isa.r1));
              i (Isa.Load (4, Isa.r2, Isa.abs 0x2000));
              i Isa.Halt;
            ]
        in
        check "r2" 0x3344 (Cpu.get cpu Isa.r2));
    Alcotest.test_case "conditional branches (signed)" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0xFFFFFFFF)) (* -1 *);
              i (Isa.Cmp_ri (Isa.r0, 1));
              Asm.Jl_l "less";
              i (Isa.Mov_ri (Isa.r1, 111));
              i Isa.Halt;
              Asm.Label "less";
              i (Isa.Mov_ri (Isa.r1, 222));
              i Isa.Halt;
            ]
        in
        check "took signed-less branch" 222 (Cpu.get cpu Isa.r1));
    Alcotest.test_case "loop with counter" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0));
              i (Isa.Mov_ri (Isa.r1, 10));
              Asm.Label "loop";
              i (Isa.Add_ri (Isa.r0, 2));
              i (Isa.Sub_ri (Isa.r1, 1));
              i (Isa.Cmp_ri (Isa.r1, 0));
              Asm.Jnz_l "loop";
              i Isa.Halt;
            ]
        in
        check "r0" 20 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "call/ret and stack" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 1));
              Asm.Call_l "f";
              i (Isa.Add_ri (Isa.r0, 100));
              i Isa.Halt;
              Asm.Label "f";
              i (Isa.Add_ri (Isa.r0, 10));
              i Isa.Ret;
            ]
        in
        check "r0" 111 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "push/pop preserve values" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 42));
              i (Isa.Push Isa.r0);
              i (Isa.Mov_ri (Isa.r0, 0));
              i (Isa.Pop Isa.r1);
              i Isa.Halt;
            ]
        in
        check "r1" 42 (Cpu.get cpu Isa.r1));
    Alcotest.test_case "lea computes effective address" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r1, 0x100));
              i (Isa.Mov_ri (Isa.r2, 4));
              i (Isa.Lea (Isa.r3, Isa.indexed ~base:Isa.r1 ~scale:2 ~disp:1 Isa.r2));
              i Isa.Halt;
            ]
        in
        check "r3" 0x109 (Cpu.get cpu Isa.r3));
    Alcotest.test_case "call through register" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              Asm.Mov_label (Isa.r5, "f");
              i (Isa.Call_r Isa.r5);
              i Isa.Halt;
              Asm.Label "f";
              i (Isa.Mov_ri (Isa.r0, 77));
              i Isa.Ret;
            ]
        in
        check "r0" 77 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "page fault reported with address" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        let prog =
          Asm.assemble ~origin:0x1000 [ i (Isa.Load (4, Isa.r0, Isa.abs 0xDEAD000)) ]
        in
        Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        (match Machine.step machine cpu with
        | Error (Cpu.Fault_page v) -> check "vaddr" 0xDEAD000 v
        | _ -> Alcotest.fail "expected page fault");
        check "pc unchanged" 0x1000 cpu.pc);
    Alcotest.test_case "invalid opcode faults" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        Mmu.write_u8 machine.mmu ~asid:space.asid 0x1000 0xEE;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        match Machine.step machine cpu with
        | Error (Cpu.Fault_decode pc) -> check "pc" 0x1000 pc
        | _ -> Alcotest.fail "expected decode fault");
    Alcotest.test_case "effects report loads and stores" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:2;
        let prog =
          Asm.assemble ~origin:0x1000
            [
              i (Isa.Mov_ri (Isa.r1, 0x1800));
              i (Isa.Store (4, Isa.based Isa.r1, Isa.r1));
              i (Isa.Load (2, Isa.r2, Isa.based Isa.r1));
            ]
        in
        Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        let effects = ref [] in
        Machine.add_exec_hook machine (fun _ e -> effects := e :: !effects);
        for _ = 1 to 3 do
          match Machine.step machine cpu with
          | Ok _ -> ()
          | Error f -> Alcotest.failf "fault %a" Cpu.pp_fault f
        done;
        match List.rev !effects with
        | [ mov; store; load ] ->
          check "mov no mem" 0 (List.length mov.Cpu.e_loads + List.length mov.e_stores);
          (match store.e_stores with
          | [ acc ] ->
            check "store width" 4 acc.width;
            check "store vaddr" 0x1800 acc.vaddr
          | _ -> Alcotest.fail "store effects");
          (match load.e_loads with
          | [ acc ] -> check "load width" 2 acc.width
          | _ -> Alcotest.fail "load effects");
          check "code bytes reported" (Encode.length (Isa.Mov_ri (Isa.r1, 0)))
            (Array.length mov.e_code_paddrs)
        | _ -> Alcotest.fail "expected three effects");
    Alcotest.test_case "halted cpu refuses to step" `Quick (fun () ->
        let cpu, machine, _ = exec [ i Isa.Halt ] in
        match Machine.step machine cpu with
        | Error Cpu.Fault_halted -> ()
        | _ -> Alcotest.fail "expected halted fault");
    Alcotest.test_case "int3 reports breakpoint" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        let prog = Asm.assemble ~origin:0x1000 [ i Isa.Int3 ] in
        Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        match Machine.step machine cpu with
        | Error Cpu.Fault_breakpoint -> ()
        | _ -> Alcotest.fail "expected breakpoint");
  ]

(* -- disassembler --------------------------------------------------------- *)

let disasm_tests =
  [
    Alcotest.test_case "renders operands" `Quick (fun () ->
        Alcotest.(check string)
          "load" "load4 r0, [r5+0x8]"
          (Disasm.to_string
             (Isa.Load (4, Isa.r0, Isa.based ~disp:8 Isa.r5)));
        Alcotest.(check string) "mov" "mov r1, 0x2a" (Disasm.to_string (Isa.Mov_ri (1, 42))));
    Alcotest.test_case "buffer disassembly stops at invalid" `Quick (fun () ->
        let buf = Bytes.of_string "\x00\x01\xFF" in
        let listing = Disasm.buffer buf in
        check "two instructions" 2 (List.length listing));
  ]


(* -- reference-interpreter property -------------------------------------- *)

(* A pure OCaml evaluator for straight-line ALU programs: the ground truth
   the CPU must agree with on randomly generated instruction sequences. *)
let reference_eval instrs =
  let regs = Array.make Isa.num_regs 0 in
  List.iter
    (fun (i : Isa.t) ->
      match i with
      | Mov_ri (r, v) -> regs.(r) <- Word.of_int v
      | Mov_rr (a, b) -> regs.(a) <- regs.(b)
      | Add_rr (a, b) -> regs.(a) <- Word.add regs.(a) regs.(b)
      | Add_ri (a, v) -> regs.(a) <- Word.add regs.(a) v
      | Sub_rr (a, b) -> regs.(a) <- Word.sub regs.(a) regs.(b)
      | Sub_ri (a, v) -> regs.(a) <- Word.sub regs.(a) v
      | Mul_rr (a, b) -> regs.(a) <- Word.mul regs.(a) regs.(b)
      | And_rr (a, b) -> regs.(a) <- Word.logand regs.(a) regs.(b)
      | And_ri (a, v) -> regs.(a) <- Word.logand regs.(a) v
      | Or_rr (a, b) -> regs.(a) <- Word.logor regs.(a) regs.(b)
      | Or_ri (a, v) -> regs.(a) <- Word.logor regs.(a) v
      | Xor_rr (a, b) -> regs.(a) <- Word.logxor regs.(a) regs.(b)
      | Xor_ri (a, v) -> regs.(a) <- Word.logxor regs.(a) v
      | Shl_ri (a, v) -> regs.(a) <- Word.shift_left regs.(a) v
      | Shr_ri (a, v) -> regs.(a) <- Word.shift_right regs.(a) v
      | Not_r a -> regs.(a) <- Word.lognot regs.(a)
      | _ -> invalid_arg "reference_eval: not straight-line ALU")
    instrs;
  regs

let arb_gpr = QCheck.Gen.int_range 0 7

let arb_alu_instr : Isa.t QCheck.Gen.t =
  QCheck.Gen.(
    let* a = arb_gpr in
    let* b = arb_gpr in
    let* v = int_range 0 0xFFFFFF in
    let* sh = int_range 0 31 in
    oneofl
      [
        Isa.Mov_ri (a, v);
        Mov_rr (a, b);
        Add_rr (a, b);
        Add_ri (a, v);
        Sub_rr (a, b);
        Sub_ri (a, v);
        Mul_rr (a, b);
        And_rr (a, b);
        And_ri (a, v);
        Or_rr (a, b);
        Or_ri (a, v);
        Xor_rr (a, b);
        Xor_ri (a, v);
        Shl_ri (a, sh);
        Shr_ri (a, sh);
        Not_r a;
      ])

let cpu_vs_reference =
  QCheck.Test.make ~count:200 ~name:"CPU agrees with the reference evaluator"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) arb_alu_instr))
    (fun instrs ->
      let expected = reference_eval instrs in
      let cpu, _, _ = exec (List.map (fun x -> i x) instrs @ [ i Isa.Halt ]) in
      List.for_all (fun r -> expected.(r) = Cpu.get cpu r) [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let assemble_disasm_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"assembled programs disassemble to the same instructions"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 30) arb_alu_instr))
    (fun instrs ->
      let prog = Asm.assemble ~origin:0 (List.map (fun x -> Asm.I x) instrs) in
      List.map snd (Disasm.buffer prog.code) = instrs)

let more_cpu_tests =
  [
    QCheck_alcotest.to_alcotest cpu_vs_reference;
    QCheck_alcotest.to_alcotest assemble_disasm_roundtrip;
    Alcotest.test_case "push adjusts sp down, pop back up" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_rr (Isa.r5, Isa.sp));
              i (Isa.Mov_ri (Isa.r0, 1));
              i (Isa.Push Isa.r0);
              i (Isa.Push Isa.r0);
              i (Isa.Pop Isa.r1);
              i (Isa.Pop Isa.r1);
              i (Isa.Mov_rr (Isa.r6, Isa.sp));
              i Isa.Halt;
            ]
        in
        check "sp restored" (Cpu.get cpu Isa.r5) (Cpu.get cpu Isa.r6));
    Alcotest.test_case "jg/jle are signed and strict" `Quick (fun () ->
        let run_branch v w =
          let cpu, _, _ =
            exec
              [
                i (Isa.Mov_ri (Isa.r0, v));
                i (Isa.Cmp_ri (Isa.r0, w));
                Asm.Jg_l "greater";
                i (Isa.Mov_ri (Isa.r1, 0));
                i Isa.Halt;
                Asm.Label "greater";
                i (Isa.Mov_ri (Isa.r1, 1));
                i Isa.Halt;
              ]
          in
          Cpu.get cpu Isa.r1
        in
        check "5 > 3" 1 (run_branch 5 3);
        check "3 > 3 is false" 0 (run_branch 3 3);
        check "-1 > 3 is false (signed)" 0 (run_branch 0xFFFFFFFF 3));
    Alcotest.test_case "test_rr sets zf without writing" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0xF0));
              i (Isa.Mov_ri (Isa.r1, 0x0F));
              i (Isa.Test_rr (Isa.r0, Isa.r1));
              Asm.Jz_l "zero";
              i (Isa.Mov_ri (Isa.r2, 1));
              i Isa.Halt;
              Asm.Label "zero";
              i (Isa.Mov_ri (Isa.r2, 2));
              i Isa.Halt;
            ]
        in
        check "disjoint masks give zf" 2 (Cpu.get cpu Isa.r2);
        check "operand untouched" 0xF0 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "16-bit load reads exactly two bytes" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0x11223344));
              i (Isa.Store (4, Isa.abs 0x2000, Isa.r0));
              i (Isa.Load (2, Isa.r1, Isa.abs 0x2001));
              i Isa.Halt;
            ]
        in
        check "middle bytes" 0x2233 (Cpu.get cpu Isa.r1));
    Alcotest.test_case "nested calls return correctly" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [
              i (Isa.Mov_ri (Isa.r0, 0));
              Asm.Call_l "outer";
              i Isa.Halt;
              Asm.Label "outer";
              i (Isa.Add_ri (Isa.r0, 1));
              Asm.Call_l "inner";
              i (Isa.Add_ri (Isa.r0, 100));
              i Isa.Ret;
              Asm.Label "inner";
              i (Isa.Add_ri (Isa.r0, 10));
              i Isa.Ret;
            ]
        in
        check "r0" 111 (Cpu.get cpu Isa.r0));
    Alcotest.test_case "conditional effect reports taken flag" `Quick (fun () ->
        let machine = Machine.create () in
        let space = Mmu.create_space machine.mmu ~name:"t" in
        Mmu.map machine.mmu space ~vaddr:0x1000 ~pages:1;
        let prog =
          Asm.assemble ~origin:0x1000
            [ i (Isa.Cmp_ri (Isa.r0, 0)); Asm.Jz_l "t"; Asm.Label "t"; i Isa.Halt ]
        in
        Mmu.write_bytes machine.mmu ~asid:space.asid 0x1000 prog.code;
        let cpu = Cpu.create ~cr3:space.asid ~pc:0x1000 ~sp:0 in
        (match Machine.step machine cpu with
        | Ok eff -> Alcotest.(check (option bool)) "no branch" None eff.e_taken
        | Error _ -> Alcotest.fail "fault");
        match Machine.step machine cpu with
        | Ok eff -> Alcotest.(check (option bool)) "taken" (Some true) eff.e_taken
        | Error _ -> Alcotest.fail "fault");
    Alcotest.test_case "arithmetic wraps at 32 bits" `Quick (fun () ->
        let cpu, _, _ =
          exec
            [ i (Isa.Mov_ri (Isa.r3, 0xFFFFFFFF)); i (Isa.Add_ri (Isa.r3, 2)); i Isa.Halt ]
        in
        check "wrap" 1 (Cpu.get cpu Isa.r3));
  ]

let () =
  Alcotest.run "faros_vm"
    [
      ("word", word_tests);
      ("encode", encode_tests);
      ("asm", asm_tests);
      ("memory", mem_tests);
      ("host-io", copy_prop_tests);
      ("cpu", cpu_tests);
      ("cpu-more", more_cpu_tests);
      ("disasm", disasm_tests);
    ]

(* malfind: Volatility's injected-code scanner, over our snapshot format.

   Flags private (non-image-backed, non-stack) regions that still contain
   plausible code at snapshot time.  Its two structural assumptions — that
   injected memory looks like code and that it is still there when the dump
   is taken — are exactly what transient attacks violate. *)

type finding = {
  fd_pid : Faros_os.Types.pid;
  fd_process : string;
  fd_vaddr : int;
  fd_instructions : int;  (* plausible instructions decoded *)
  fd_preview : string;
}

(* Count decodable, non-trivial instructions from the region start. *)
let code_score data =
  let b = Bytes.of_string data in
  let rec go off count =
    if off >= Bytes.length b then count
    else
      match Faros_vm.Decode.of_bytes b off with
      | exception Faros_vm.Decode.Invalid_opcode _ -> count
      | Faros_vm.Isa.Nop, len -> go (off + len) count  (* zero bytes decode as nops *)
      | Faros_vm.Isa.Halt, _ -> count + 1
      | _, len -> go (off + len) (count + 1)
  in
  go 0 0

let min_instructions = 5

let scan (dump : Memdump.t) : finding list =
  List.filter_map
    (fun (r : Memdump.region) ->
      match r.rg_kind with
      | Image | Stack -> None
      | Private ->
        let score = code_score r.rg_data in
        if score >= min_instructions then
          Some
            {
              fd_pid = r.rg_pid;
              fd_process = r.rg_process;
              fd_vaddr = r.rg_vaddr;
              fd_instructions = score;
              fd_preview =
                String.sub r.rg_data 0 (min 16 (String.length r.rg_data));
            }
        else None)
    dump.regions

let pp_finding ppf f =
  Fmt.pf ppf "pid %d (%s): private executable region at 0x%08x (%d instrs)"
    f.fd_pid f.fd_process f.fd_vaddr f.fd_instructions

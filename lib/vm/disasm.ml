(* Pretty-printer / disassembler for guest instructions. *)

let pp_addr ppf (a : Isa.addr) =
  let parts = ref [] in
  (match a.index with
  | Some i when a.scale <> 1 ->
    parts := Printf.sprintf "%s*%d" (Isa.reg_name i) a.scale :: !parts
  | Some i -> parts := Isa.reg_name i :: !parts
  | None -> ());
  (match a.base with
  | Some b -> parts := Isa.reg_name b :: !parts
  | None -> ());
  let base = String.concat "+" !parts in
  if base = "" then Fmt.pf ppf "[0x%x]" a.disp
  else if a.disp = 0 then Fmt.pf ppf "[%s]" base
  else Fmt.pf ppf "[%s+0x%x]" base a.disp

(* The mnemonic, then each operand in encoding order; the accumulator is
   the separator the next operand is printed after. *)
let pp ppf i =
  let operand pp_x sep x =
    Fmt.pf ppf "%s%a" sep pp_x x;
    ", "
  in
  ignore
    (Encode.fold
       {
         opcode =
           (fun _ _ mnemonic ->
             Fmt.string ppf mnemonic;
             " ");
         reg = operand (fun ppf r -> Fmt.string ppf (Isa.reg_name r));
         imm = operand (fun ppf v -> Fmt.pf ppf "0x%x" v);
         addr = operand pp_addr;
       }
       "" i)

let to_string i = Fmt.str "%a" pp i

(* Disassemble a flat code buffer into (offset, instruction) pairs; stops at
   the first undecodable byte. *)
let buffer b =
  let rec go off acc =
    if off >= Bytes.length b then List.rev acc
    else
      match Decode.of_bytes b off with
      | i, len -> go (off + len) ((off, i) :: acc)
      | exception Decode.Invalid_opcode _ -> List.rev acc
  in
  go 0 []

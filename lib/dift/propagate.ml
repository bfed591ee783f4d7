(* The three propagation primitives of Table I, over abstract locations.

       copy(a, b)      prov(a) <- prov(b)
       union(a, b, c)  prov(a) <- prov(b) U prov(c)
       delete(a)       prov(a) <- {}

   The engine applies the same three operations inline over the shadow
   (it does not call this module); stating them here on their own keeps
   Table I directly testable. *)

type loc = Mem of int  (* physical byte *) | Reg of int * int  (* asid, reg *)

let get shadow = function
  | Mem paddr -> Shadow.get_mem shadow paddr
  | Reg (asid, r) -> Shadow.get_reg shadow ~asid r

let set shadow loc prov =
  match loc with
  | Mem paddr -> Shadow.set_mem shadow paddr prov
  | Reg (asid, r) -> Shadow.set_reg shadow ~asid r prov

(* copy(a, b): a takes b's provenance (MOV, STR, LD). *)
let copy shadow ~dst ~src = set shadow dst (get shadow src)

(* union(a, b, c): a takes the union (AND, OR, MUL, ...). *)
let union shadow ~dst ~src1 ~src2 =
  set shadow dst (Provenance.union (get shadow src1) (get shadow src2))

(* delete(a): a's provenance is cleared (MOVI, XOR r,r). *)
let delete shadow loc = set shadow loc Provenance.empty

(** The three propagation primitives of Table I, over abstract locations:

    {v
      copy(a, b)      prov(a) <- prov(b)
      union(a, b, c)  prov(a) <- prov(b) U prov(c)
      delete(a)       prov(a) <- {}
    v}

    The engine applies the same three operations inline over the shadow
    (it does not call this module); stating them here on their own keeps
    Table I directly testable. *)

type loc =
  | Mem of int  (** a physical byte *)
  | Reg of int * int  (** (address-space id, register) *)

val get : Shadow.t -> loc -> Provenance.t
val set : Shadow.t -> loc -> Provenance.t -> unit

val copy : Shadow.t -> dst:loc -> src:loc -> unit
(** copy(a, b): the destination takes the source's provenance (MOV, STR,
    LD). *)

val union : Shadow.t -> dst:loc -> src1:loc -> src2:loc -> unit
(** union(a, b, c): the destination takes the union (AND, OR, MUL, ...). *)

val delete : Shadow.t -> loc -> unit
(** delete(a): the location's provenance is cleared (MOVI, XOR r,r). *)

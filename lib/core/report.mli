(** Analysis reports: flagged instructions with full provenance, rendered in
    the format of Table II. *)

(** One flagged load: the injected instruction, where it executed, and the
    provenance of both its code bytes and the export-table location it
    read. *)
type flag = {
  f_tick : int;  (** global instruction count at flag time *)
  f_pc : int;  (** address of the flagged load (Table II's memory address) *)
  f_asid : int;  (** CR3 of the flagged process, for pid resolution *)
  f_process : string;  (** process executing the injected code *)
  f_instr : Faros_vm.Isa.t;
  f_instr_prov : Faros_dift.Provenance.t;
  f_read_vaddr : int;  (** export-table address the load read *)
  f_read_prov : Faros_dift.Provenance.t;
  f_whitelisted : bool;
}

type t = {
  mutable flags : flag list;  (** newest first *)
  mutable suppressed : int;  (** whitelisted flag count *)
}

val create : unit -> t
val add : t -> flag -> unit

val flags : t -> flag list
(** All flags, oldest first. *)

val effective_flags : t -> flag list
(** Flags not suppressed by the whitelist. *)

val flagged : t -> bool
(** True when at least one effective flag exists: the sample verdict. *)

val flagged_sites : t -> flag list
(** One representative flag per distinct (process, pc) pair. *)

val describe_tag :
  store:Faros_dift.Tag_store.t ->
  name_of_asid:(int -> string) ->
  Faros_dift.Tag.t ->
  string
(** Human rendering of one tag, resolved against the tag store. *)

val render_provenance :
  store:Faros_dift.Tag_store.t ->
  name_of_asid:(int -> string) ->
  Faros_dift.Provenance.t ->
  string
(** Provenance rendered oldest-first with ["->"] separators, as Table II
    prints it (origin first: NetFlow -> inject_client.exe -> notepad.exe). *)

val pp_table :
  store:Faros_dift.Tag_store.t -> name_of_asid:(int -> string) -> t Fmt.t
(** The Table II layout: memory-address column and provenance column. *)

val to_json :
  store:Faros_dift.Tag_store.t -> name_of_asid:(int -> string) -> t -> Faros_obs.Json.t
(** A self-contained JSON document (flags with resolved provenance
    strings) an analyst can archive with the sample. *)

val summary : t -> string

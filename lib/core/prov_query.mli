(** Post-analysis provenance queries.

    The report answers "was there an injection"; these helpers answer the
    analyst's follow-ups: where tainted data sits, in which processes,
    carrying which tag types. *)

type region_taint = {
  rt_pid : Faros_os.Types.pid;
  rt_process : string;
  rt_vaddr : int;  (** start of the contiguous tainted run *)
  rt_len : int;
  rt_types : Faros_dift.Tag.ty list;  (** union over the run *)
  rt_sample : Faros_dift.Provenance.t;  (** provenance of the first byte *)
}

val ty_name : Faros_dift.Tag.ty -> string

val regions_of_process :
  Faros_plugin.t -> Faros_os.Process.t -> region_taint list
(** Contiguous tainted runs in one process's user-space mappings (below
    {!Faros_os.Export_table.kernel_base}), in address order.  A page walk:
    one page-table and one shadow probe per mapped page, plus a slot scan
    of the shadow pages that carry taint. *)

val tainted_regions : Faros_plugin.t -> region_taint list

val totals : region_taint list -> int * int
(** (tainted bytes, bytes carrying netflow taint) over a set of runs. *)

val summary_by_process : Faros_plugin.t -> (string * int * int) list
(** Per process: (name, tainted bytes, bytes carrying netflow taint). *)

(** A printable run found inside netflow-tainted memory. *)
type tainted_string = {
  ts_process : string;
  ts_vaddr : int;
  ts_text : string;
  ts_prov : Faros_dift.Provenance.t;
}

val strings : Faros_plugin.t -> tainted_string list
(** Provenance-aware [strings]: printable runs of at least 4 bytes in
    netflow-tainted memory, each with the provenance of its first byte —
    "this string came off that wire, through those processes". *)

val pp_region : faros:Faros_plugin.t -> region_taint Fmt.t

(** malfind: Volatility's injected-code scanner, over our snapshot format.

    Flags private (non-image-backed, non-stack) regions that still contain
    plausible code at snapshot time.  Its two structural assumptions — that
    injected memory looks like code and that it is still there when the
    dump is taken — are exactly what transient attacks violate. *)

type finding = {
  fd_pid : Faros_os.Types.pid;
  fd_process : string;
  fd_vaddr : int;
  fd_instructions : int;
  fd_preview : string;
}

val code_score : string -> int
(** Plausible (non-trivial) instructions decodable from the region start. *)

val min_instructions : int

val scan : Memdump.t -> finding list
val pp_finding : finding Fmt.t

(** The indirect-flow experiments of Figs. 1 and 2.

    Two guest programs receive tainted input over the network and copy it
    to an output buffer through an indirect flow only: an address
    dependency (str2[j] = lookuptable[str1[j]], Fig. 1) or a control
    dependency (bit-by-bit copy through an if, Fig. 2).  The experiment
    records expose the buffers' addresses so shadow memory can be
    interrogated afterwards. *)

type experiment = {
  exp_name : string;
  exp_scenario : Scenario.t;
  exp_input_vaddr : int;  (** str1 *)
  exp_output_vaddr : int;  (** str2 *)
  exp_len : int;
}

val lookup_experiment : unit -> experiment
val bitcopy_experiment : unit -> experiment

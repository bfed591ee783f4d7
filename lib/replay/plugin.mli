(** PANDA-style plugin API.

    A plugin is a set of callbacks over the execution: per-instruction
    hooks (what PANDA exposes via TCG/LLVM instrumentation) and kernel
    event hooks (the syscalls2 and OSI plugins).  The FAROS analysis and
    the Cuckoo baseline are both plugins. *)

type t = {
  name : string;
  on_exec : (Faros_vm.Cpu.t -> Faros_vm.Cpu.effect -> unit) option;
  on_os_event : (Faros_os.Os_event.t -> unit) option;
}

val make :
  ?on_exec:(Faros_vm.Cpu.t -> Faros_vm.Cpu.effect -> unit) ->
  ?on_os_event:(Faros_os.Os_event.t -> unit) ->
  string ->
  t

val attach_all : Faros_os.Kernel.t -> t list -> unit

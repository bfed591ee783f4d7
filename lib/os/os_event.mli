(** Kernel events.

    These are the introspection surface of the guest OS — the equivalent of
    PANDA's syscalls2 and OSI plugins.  Whole-system analyses (the FAROS
    plugin, the Cuckoo-style sandbox) subscribe to this stream.

    Every host-side byte copy the kernel performs on behalf of the guest is
    reported with resolved {e physical} addresses, so that taint propagates
    through syscalls exactly as it does through instructions.  A buffer
    travels as a list of physical extents ({!Faros_vm.Extent}), one per
    page or run of adjacent frames, in buffer order: the [n]th byte of the
    buffer is the [n]th byte the extents cover. *)

type t =
  | Proc_created of {
      pid : Types.pid;
      name : string;
      parent : Types.pid option;
      asid : int;
      suspended : bool;
    }
  | Proc_exited of { pid : Types.pid; code : int }
  | Proc_suspended of { pid : Types.pid; by : Types.pid }
  | Proc_resumed of { pid : Types.pid; by : Types.pid }
  | Proc_unmapped of { pid : Types.pid; by : Types.pid; vaddr : int; pages : int }
  | Sys_enter of {
      pid : Types.pid;
      sysno : int;
      sysname : string;
      args : int array;
      via_stub : bool;  (** entered through a hookable library stub *)
    }
  | Sys_exit of { pid : Types.pid; sysno : int; ret : int }
  | File_opened of { pid : Types.pid; path : string; created : bool }
  | File_read of {
      pid : Types.pid;
      path : string;
      version : int;
      offset : int;
      dst : Faros_vm.Extent.t list;  (** where the bytes landed in guest memory *)
    }
  | File_write of {
      pid : Types.pid;
      path : string;
      version : int;
      offset : int;
      src : Faros_vm.Extent.t list;
    }
  | File_deleted of { pid : Types.pid; path : string }
  | Net_connect of { pid : Types.pid; flow : Types.flow }
  | Net_accept of { pid : Types.pid; flow : Types.flow }
      (** a server accepted a host-initiated (or loopback) connection *)
  | Net_recv of { pid : Types.pid; flow : Types.flow; dst : Faros_vm.Extent.t list }
  | Net_send of { pid : Types.pid; flow : Types.flow; src : Faros_vm.Extent.t list }
  | Net_closed of { pid : Types.pid; flow : Types.flow }
      (** a process closed a connected socket: the flow is quiescent from
          its side (incremental graph builders retire on this) *)
  | Mem_copy of {
      by : Types.pid;  (** the process that asked for the copy *)
      src_pid : Types.pid;
      dst_pid : Types.pid;
      src : Faros_vm.Extent.t list;
      dst : Faros_vm.Extent.t list;
    }
  | Mem_alloc of { by : Types.pid; in_pid : Types.pid; vaddr : int; pages : int }
  | Module_loaded of { pid : Types.pid; image : string; base : int }
  | Context_set of { pid : Types.pid; by : Types.pid; new_pc : int }
  | Popup of { pid : Types.pid; text : string }
  | Debug_print of { pid : Types.pid; text : string }
  | Key_read of { pid : Types.pid; key : int }
  | Audio_read of { pid : Types.pid; bytes : int }
  | Screenshot of { pid : Types.pid; bytes : int }

val name : t -> string
(** Short event-kind name, for filtering and traces. *)

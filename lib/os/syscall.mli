(** Syscall numbers.  The kernel's syscall table ({!Kernel.syscall_name})
    gives each served number its name and handler.

    ABI: the number goes in r0, arguments in r1..r5, the result comes back
    in r0.  Guest code can either call a kernel-exported API stub (which a
    library-level monitor like the Cuckoo baseline can hook) or issue a raw
    SYSCALL — the evasion the paper's loaders use to stay invisible to
    event-based sandboxes. *)

(** {2 Process / memory} *)

val nt_terminate_process : int
val nt_create_process : int
(** r1 = path ptr, r2 = path len, r3 = flags (bit 0: create suspended). *)

val nt_suspend_process : int
val nt_resume_process : int

val nt_allocate_virtual_memory : int
(** r1 = pid (0 = self), r2 = size; returns the new region base. *)

val nt_write_virtual_memory : int
(** r1 = pid, r2 = dst vaddr (target), r3 = src vaddr (caller), r4 = len —
    the injection primitive. *)

val nt_read_virtual_memory : int
val nt_unmap_view_of_section : int
val nt_get_context_thread : int
val nt_set_context_thread : int
val nt_query_information_process : int
val nt_get_current_pid : int
val nt_delay_execution : int
val nt_get_tick_count : int

val nt_yield_execution : int
(** Cooperative yield: ends the caller's timeslice so other processes and
    the inbound network pump make progress. *)

(** {2 Filesystem} *)

val nt_create_file : int
val nt_open_file : int
val nt_read_file : int
val nt_write_file : int
val nt_close : int
val nt_delete_file : int
val nt_query_file_size : int
val nt_set_file_position : int
val nt_query_directory_file : int
val nt_flush_buffers_file : int
val nt_query_attributes_file : int

(** {2 Network} *)

val sys_socket : int
val sys_connect : int
val sys_send : int
val sys_recv : int
val sys_bind : int
val sys_listen : int
val sys_accept : int

val sys_poll : int
(** r1 = handle; returns a readiness bitmask (listener: bit 0 = pending
    connection; connected socket: bit 0 = bytes available, bit 1 = EOF). *)

(** {2 Loader} *)

val ldr_load_library : int
val ldr_get_proc_address : int

(** {2 Devices} *)

val dev_key_read : int
val dev_audio_record : int
val dev_screenshot : int
val dev_popup : int
val dbg_print : int

val category : int -> string
(** Coarse family of a syscall number — ["process"], ["file"], ["net"],
    ["loader"], ["device"] or ["unknown"].  Used as the [class] argument of
    syscall-dispatch trace events. *)

val filesystem_syscalls : int list
(** The hooks the paper's file-tag insertion driver intercepts. *)

val exported_apis : (string * int) list
(** The Windows-API surface exported by the kernel "modules": API name and
    the syscall its stub performs.  [LoadLibraryA], [GetProcAddress] and
    [VirtualAlloc] are the three functions the paper's reflective DLL must
    resolve from the export table. *)

(* Syscall numbers.  The kernel's syscall table (kernel.ml) gives each
   served number its name and handler.

   ABI: the number goes in r0, arguments in r1..r5, the result comes back in
   r0.  Guest code can either call a kernel-exported API stub (which a
   library-level monitor like the Cuckoo baseline can hook) or issue a raw
   SYSCALL — the evasion the paper's loaders use to stay invisible to
   event-based sandboxes. *)

(* process / memory *)
let nt_terminate_process = 0x01
let nt_create_process = 0x02
let nt_suspend_process = 0x03
let nt_resume_process = 0x04
let nt_allocate_virtual_memory = 0x05
let nt_write_virtual_memory = 0x06
let nt_read_virtual_memory = 0x07
let nt_unmap_view_of_section = 0x08
let nt_get_context_thread = 0x09
let nt_set_context_thread = 0x0A
let nt_query_information_process = 0x0B
let nt_get_current_pid = 0x0C
let nt_delay_execution = 0x0D
let nt_get_tick_count = 0x0E
let nt_yield_execution = 0x0F

(* filesystem *)
let nt_create_file = 0x10
let nt_open_file = 0x11
let nt_read_file = 0x12
let nt_write_file = 0x13
let nt_close = 0x14
let nt_delete_file = 0x15
let nt_query_file_size = 0x16
let nt_set_file_position = 0x17
let nt_query_directory_file = 0x18
let nt_flush_buffers_file = 0x19
let nt_query_attributes_file = 0x1A

(* network *)
let sys_socket = 0x20
let sys_connect = 0x21
let sys_send = 0x22
let sys_recv = 0x23
let sys_bind = 0x24
let sys_listen = 0x25
let sys_accept = 0x26
let sys_poll = 0x27

(* loader *)
let ldr_load_library = 0x30
let ldr_get_proc_address = 0x31

(* devices *)
let dev_key_read = 0x40
let dev_audio_record = 0x41
let dev_screenshot = 0x42
let dev_popup = 0x43
let dbg_print = 0x44

(* Coarse family of a syscall number, keyed off the numbering blocks above.
   Used as the [class] argument of syscall-dispatch trace events. *)
let category sysno =
  if sysno >= 0x01 && sysno <= 0x0F then "process"
  else if sysno >= 0x10 && sysno <= 0x1A then "file"
  else if sysno >= 0x20 && sysno <= 0x27 then "net"
  else if sysno >= 0x30 && sysno <= 0x31 then "loader"
  else if sysno >= 0x40 && sysno <= 0x44 then "device"
  else "unknown"

(* Filesystem-related syscalls: the hooks the paper's file-tag insertion
   driver intercepts (its "26 filesystem-related system calls"). *)
let filesystem_syscalls =
  [
    nt_create_file;
    nt_open_file;
    nt_read_file;
    nt_write_file;
    nt_close;
    nt_delete_file;
    nt_query_file_size;
    nt_set_file_position;
    nt_query_directory_file;
    nt_flush_buffers_file;
    nt_query_attributes_file;
  ]

(* The Windows-API surface exported by the kernel "modules": API name and the
   syscall its stub performs.  [LoadLibraryA], [GetProcAddress] and
   [VirtualAlloc] are the three functions the paper's reflective DLL must
   resolve from the export table. *)
let exported_apis =
  [
    ("LoadLibraryA", ldr_load_library);
    ("GetProcAddress", ldr_get_proc_address);
    ("VirtualAlloc", nt_allocate_virtual_memory);
    ("VirtualAllocEx", nt_allocate_virtual_memory);
    ("WriteProcessMemory", nt_write_virtual_memory);
    ("ReadProcessMemory", nt_read_virtual_memory);
    ("CreateProcessA", nt_create_process);
    ("SuspendThread", nt_suspend_process);
    ("ResumeThread", nt_resume_process);
    ("GetThreadContext", nt_get_context_thread);
    ("SetThreadContext", nt_set_context_thread);
    ("NtUnmapViewOfSection", nt_unmap_view_of_section);
    ("NtQueryInformationProcess", nt_query_information_process);
    ("GetCurrentProcessId", nt_get_current_pid);
    ("Sleep", nt_delay_execution);
    ("GetTickCount", nt_get_tick_count);
    ("ExitProcess", nt_terminate_process);
    ("CreateFileA", nt_create_file);
    ("OpenFileA", nt_open_file);
    ("ReadFile", nt_read_file);
    ("WriteFile", nt_write_file);
    ("CloseHandle", nt_close);
    ("DeleteFileA", nt_delete_file);
    ("GetFileSize", nt_query_file_size);
    ("SetFilePointer", nt_set_file_position);
    ("FindFirstFileA", nt_query_directory_file);
    ("FlushFileBuffers", nt_flush_buffers_file);
    ("GetFileAttributesA", nt_query_attributes_file);
    ("socket", sys_socket);
    ("connect", sys_connect);
    ("send", sys_send);
    ("recv", sys_recv);
    ("bind", sys_bind);
    ("listen", sys_listen);
    ("accept", sys_accept);
    ("MessageBoxA", dev_popup);
    ("GetAsyncKeyState", dev_key_read);
    ("waveInRecord", dev_audio_record);
    ("BitBlt", dev_screenshot);
    ("OutputDebugStringA", dbg_print);
  ]

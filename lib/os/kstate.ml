(* Kernel state: everything the syscall handlers and the scheduler touch. *)

type t = {
  machine : Faros_vm.Machine.t;
  fs : Fs.t;
  net : Netstack.t;
  input : Input_dev.t;
  exports : Export_table.t;
  procs : (Types.pid, Process.t) Hashtbl.t;
  mutable next_pid : int;
  mutable subscribers : (Os_event.t -> unit) list;
  mutable tick : int;  (* instructions executed, whole system *)
  mutable syscalls : int;  (* syscalls dispatched, whole system *)
  mutable run_queue : Types.pid list;
  mutable sink : Faros_obs.Sink.t;  (* syscall-dispatch trace events *)
  mutable profile : Faros_obs.Profile.t;  (* span profiler; disabled by default *)
}

let create ~local_ip =
  let machine = Faros_vm.Machine.create () in
  let exports = Export_table.build machine in
  {
    machine;
    fs = Fs.create ();
    net = Netstack.create ~local_ip;
    input = Input_dev.create ();
    exports;
    procs = Hashtbl.create 16;
    next_pid = 100;
    subscribers = [];
    tick = 0;
    syscalls = 0;
    run_queue = [];
    sink = Faros_obs.Sink.null;
    profile = Faros_obs.Profile.disabled;
  }

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let set_sink t sink = t.sink <- sink

let emit t ev = List.iter (fun f -> f ev) t.subscribers

let proc t pid = Hashtbl.find_opt t.procs pid

let proc_exn t pid =
  match proc t pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "no such process %d" pid)

let proc_name t pid =
  match proc t pid with Some p -> p.Process.proc_name | None -> Printf.sprintf "pid%d" pid

(* Process lookup by asid: how analyses translate CR3 back to a process. *)
let proc_by_asid t asid =
  Hashtbl.fold
    (fun _ p acc -> if Process.asid p = asid then Some p else acc)
    t.procs None

let processes t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> compare a.Process.pid b.Process.pid)

(* Guest-memory helpers used across syscall handlers. *)
let read_guest_bytes t (p : Process.t) vaddr len =
  Faros_vm.Mmu.read_bytes t.machine.mmu ~asid:(Process.asid p) vaddr len

let write_guest_bytes t (p : Process.t) vaddr b =
  Faros_vm.Mmu.write_bytes t.machine.mmu ~asid:(Process.asid p) vaddr b

(* Names (paths, module and export names) are copied whole into the host,
   so a guest-supplied length is bounded before anything is allocated;
   64 KiB is also what DbgPrint and DevPopup text is clamped to. *)
let max_name = 1 lsl 16

exception Name_too_long

let read_guest_string t p vaddr len =
  if len < 0 || len > max_name then raise Name_too_long;
  Bytes.to_string (read_guest_bytes t p vaddr len)

let guest_extents t (p : Process.t) vaddr len =
  Faros_vm.Mmu.extents t.machine.mmu ~asid:(Process.asid p) vaddr len

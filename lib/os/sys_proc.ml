(* Process-management syscalls.

   These are the NT primitives the paper's attacks are built from: creating
   a process suspended, suspending/resuming, and redirecting a suspended
   process's thread context at an injected entry point. *)

let err = -1 land Faros_vm.Word.mask

(* r1 = exit code *)
let terminate (k : Kstate.t) (p : Process.t) args =
  p.state <- Terminated;
  p.exit_code <- args.(0);
  Faros_vm.Machine.retire_asid k.machine p.space.asid;
  Kstate.emit k (Os_event.Proc_exited { pid = p.pid; code = args.(0) });
  0

(* r1 = path ptr, r2 = path len, r3 = flags (bit0: create suspended),
   r4 = parent handle to duplicate into the child (0 = none) — how a
   daemon hands an accepted connection to a spawned worker.  The child
   finds the duplicated handle in its r1 at entry.  Returns the child pid
   (which doubles as its handle). *)
let create_process (k : Kstate.t) (p : Process.t) args =
  let path = Kstate.read_guest_string k p args.(0) args.(1) in
  let suspended = args.(2) land 1 <> 0 in
  let inherit_obj =
    if args.(3) = 0 then None else Process.find_handle p args.(3)
  in
  match Spawn.spawn k ~path ~suspended ~parent:(Some p.pid) with
  | pid ->
    (match inherit_obj with
    | Some obj -> (
      match Kstate.proc k pid with
      | Some child ->
        let h = Process.alloc_handle child obj in
        child.cpu.regs.(1) <- h
      | None -> ())
    | None -> ());
    pid
  | exception (Spawn.Bad_executable _ | Loader.Unresolved_import _) -> err

let with_target (k : Kstate.t) (p : Process.t) pid f =
  let target_pid = if pid = 0 then p.pid else pid in
  match Kstate.proc k target_pid with Some t -> f t | None -> err

(* r1 = pid *)
let suspend (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      if t.state = Terminated then err
      else begin
        t.state <- Suspended;
        Kstate.emit k (Os_event.Proc_suspended { pid = t.pid; by = p.pid });
        0
      end)

(* r1 = pid *)
let resume (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      if t.state = Terminated then err
      else begin
        t.state <- Ready;
        if not (List.mem t.pid k.run_queue) then k.run_queue <- k.run_queue @ [ t.pid ];
        Kstate.emit k (Os_event.Proc_resumed { pid = t.pid; by = p.pid });
        0
      end)

(* r1 = pid; returns the target's program counter (its "thread context"). *)
let get_context (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t -> t.cpu.pc)

(* r1 = pid, r2 = new pc *)
let set_context (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      t.cpu.pc <- args.(1);
      Kstate.emit k (Os_event.Context_set { pid = t.pid; by = p.pid; new_pc = args.(1) });
      0)

(* r1 = pid; returns the image base. *)
let query_information (k : Kstate.t) (p : Process.t) args =
  with_target k p args.(0) (fun t ->
      match t.image with Some img -> img.base | None -> err)

let get_current_pid (_ : Kstate.t) (p : Process.t) _ = p.pid

(* r1 = ticks; cooperative delay — ends the current slice. *)
let delay (_ : Kstate.t) (p : Process.t) _ =
  p.slice_budget <- 0;
  0

(* Cooperative yield — ends the current slice so other processes (and the
   inbound network pump, which runs at slice boundaries) make progress.
   The polite alternative to busy-spinning on a non-blocking accept. *)
let yield (_ : Kstate.t) (p : Process.t) _ =
  p.slice_budget <- 0;
  0

let get_tick_count (k : Kstate.t) (_ : Process.t) _ = k.tick land Faros_vm.Word.mask

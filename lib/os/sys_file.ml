(* Filesystem syscalls — the hooks FAROS's file-tag insertion driver
   intercepts.  Reads and writes report the guest-side physical extents so
   provenance can flow through files (Fig. 4's File 1 hop). *)

let err = -1 land Faros_vm.Word.mask
let max_io = 1 lsl 20

(* r1 = path ptr, r2 = path len.  Creates (truncating) and opens. *)
let create_file (k : Kstate.t) (p : Process.t) args =
  let path = Kstate.read_guest_string k p args.(0) args.(1) in
  let created = not (Fs.exists k.fs path) in
  ignore (Fs.create_file k.fs path);
  Kstate.emit k (Os_event.File_opened { pid = p.pid; path; created });
  Process.alloc_handle p (Hfile { path; pos = 0 })

(* r1 = path ptr, r2 = path len *)
let open_file (k : Kstate.t) (p : Process.t) args =
  let path = Kstate.read_guest_string k p args.(0) args.(1) in
  if not (Fs.exists k.fs path) then err
  else begin
    ignore (Fs.open_file k.fs path);
    Kstate.emit k (Os_event.File_opened { pid = p.pid; path; created = false });
    Process.alloc_handle p (Hfile { path; pos = 0 })
  end

let with_file (p : Process.t) h f =
  match Process.find_handle p h with
  | Some (Hfile fh) -> f fh
  | Some (Hsock _ | Hproc _) | None -> err

(* r1 = handle, r2 = buf, r3 = len.  Returns bytes read. *)
let read_file (k : Kstate.t) (p : Process.t) args =
  with_file p args.(0) (fun fh ->
      let len = args.(2) in
      if len < 0 || len > max_io then err
      else if not (Fs.exists k.fs fh.path) then err
      else begin
        let f = Fs.find k.fs fh.path in
        let data = Fs.read f ~offset:fh.pos ~len in
        let n = Bytes.length data in
        if n > 0 then begin
          Kstate.write_guest_bytes k p args.(1) data;
          Kstate.emit k
            (Os_event.File_read
               {
                 pid = p.pid;
                 path = fh.path;
                 version = f.version;
                 offset = fh.pos;
                 dst = Kstate.guest_extents k p args.(1) n;
               });
          fh.pos <- fh.pos + n
        end;
        n
      end)

(* r1 = handle, r2 = buf, r3 = len.  Returns bytes written. *)
let write_file (k : Kstate.t) (p : Process.t) args =
  with_file p args.(0) (fun fh ->
      let len = args.(2) in
      if len < 0 || len > max_io then err
      else if not (Fs.exists k.fs fh.path) then err
      else begin
        let f = Fs.find k.fs fh.path in
        let data = Kstate.read_guest_bytes k p args.(1) len in
        Fs.write f ~offset:fh.pos data;
        Kstate.emit k
          (Os_event.File_write
             {
               pid = p.pid;
               path = fh.path;
               version = f.version;
               offset = fh.pos;
               src = Kstate.guest_extents k p args.(1) len;
             });
        fh.pos <- fh.pos + len;
        len
      end)

(* r1 = handle; closes files, sockets and process handles alike. *)
let close (k : Kstate.t) (p : Process.t) args =
  match Process.find_handle p args.(0) with
  | Some (Hsock sid) ->
    (* Capture the flow before the netstack forgets it: connected sockets
       announce their quiescence so incremental graph builders can retire
       the flow's subgraph. *)
    let flow = Netstack.flow_of k.net sid in
    Netstack.close k.net sid;
    Process.close_handle p args.(0);
    Option.iter
      (fun flow -> Kstate.emit k (Os_event.Net_closed { pid = p.pid; flow }))
      flow;
    0
  | Some (Hfile _ | Hproc _) ->
    Process.close_handle p args.(0);
    0
  | None -> err

(* r1 = path ptr, r2 = path len *)
let delete_file (k : Kstate.t) (p : Process.t) args =
  let path = Kstate.read_guest_string k p args.(0) args.(1) in
  match Fs.delete k.fs path with
  | () ->
    Kstate.emit k (Os_event.File_deleted { pid = p.pid; path });
    0
  | exception Fs.No_such_file _ -> err

(* r1 = handle *)
let query_size (k : Kstate.t) (p : Process.t) args =
  with_file p args.(0) (fun fh ->
      if Fs.exists k.fs fh.path then Fs.size k.fs fh.path else err)

(* r1 = handle, r2 = pos *)
let set_position (_ : Kstate.t) (p : Process.t) args =
  with_file p args.(0) (fun fh ->
      if args.(1) < 0 then err
      else begin
        fh.pos <- args.(1);
        0
      end)

(* Number of files in the filesystem (a stand-in for directory listing). *)
let query_directory (k : Kstate.t) (_ : Process.t) _ = List.length (Fs.list k.fs)

let flush_buffers (_ : Kstate.t) (_ : Process.t) _ = 0

(* r1 = path ptr, r2 = path len; 1 if the file exists. *)
let query_attributes (k : Kstate.t) (p : Process.t) args =
  let path = Kstate.read_guest_string k p args.(0) args.(1) in
  if Fs.exists k.fs path then 1 else 0

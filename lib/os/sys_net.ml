(* Network syscalls.  [recv] is the taint source for netflow tags: the
   kernel reports the flow and the physical extents the payload landed on,
   and FAROS's taint-insertion pass tags every byte they cover. *)

let err = -1 land Faros_vm.Word.mask
let max_io = 1 lsl 20

let socket (k : Kstate.t) (p : Process.t) _ =
  Process.alloc_handle p (Hsock (Netstack.socket k.net))

let with_sock (p : Process.t) h f =
  match Process.find_handle p h with
  | Some (Hsock sid) -> f sid
  | Some (Hfile _ | Hproc _) | None -> err

(* r1 = handle, r2 = ip (u32), r3 = port *)
let connect (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      match Netstack.connect k.net sid ~ip:args.(1) ~port:args.(2) with
      | flow ->
        Kstate.emit k (Os_event.Net_connect { pid = p.pid; flow });
        0
      | exception Netstack.Connection_refused _ -> err)

(* r1 = handle, r2 = buf, r3 = len *)
let send (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      let len = args.(2) in
      if len < 0 || len > max_io then err
      else begin
        let data = Kstate.read_guest_bytes k p args.(1) len in
        match Netstack.flow_of k.net sid with
        | None -> err
        | Some flow ->
          Kstate.emit k
            (Os_event.Net_send
               { pid = p.pid; flow; src = Kstate.guest_extents k p args.(1) len });
          Netstack.send k.net sid (Bytes.to_string data)
      end)

(* r1 = handle, r2 = port.  Claim a local port for a guest server. *)
let bind (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      match Netstack.bind k.net sid ~port:args.(1) with
      | () -> 0
      | exception Netstack.Bad_socket _ -> err)

(* r1 = handle *)
let listen (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      match Netstack.listen k.net sid with
      | () -> 0
      | exception Netstack.Bad_socket _ -> err)

(* r1 = handle.  Returns a handle for the accepted connection, or -1 when
   nothing is pending (guests poll). *)
let accept (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      match Netstack.accept k.net sid with
      | Some conn ->
        (match Netstack.flow_of k.net conn with
        | Some flow -> Kstate.emit k (Os_event.Net_accept { pid = p.pid; flow })
        | None -> ());
        Process.alloc_handle p (Hsock conn)
      | None -> err
      | exception Netstack.Bad_socket _ -> err)

(* r1 = handle, r2 = buf, r3 = len.  Returns bytes received, 0 when
   nothing is pending yet, or -1 once the stream is at EOF (remote side
   closed and every byte drained) — how a server worker knows a client is
   done without a length prefix. *)
let recv (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      let len = args.(2) in
      if len < 0 || len > max_io then err
      else begin
        let data = Netstack.recv k.net sid ~len in
        let n = String.length data in
        if n > 0 then begin
          Kstate.write_guest_bytes k p args.(1) (Bytes.of_string data);
          match Netstack.flow_of k.net sid with
          | Some flow ->
            Kstate.emit k
              (Os_event.Net_recv
                 { pid = p.pid; flow; dst = Kstate.guest_extents k p args.(1) n })
          | None -> ()
        end;
        if n = 0 && Netstack.eof k.net sid then err else n
      end)

(* r1 = handle.  Readiness bitmask: listener — bit 0 = connection waiting
   to be accepted; connected socket — bit 0 = bytes available, bit 1 =
   stream at EOF.  Lets servers sleep (yield) instead of spinning. *)
let poll (k : Kstate.t) (p : Process.t) args =
  with_sock p args.(0) (fun sid ->
      match Netstack.readiness k.net sid with
      | r -> r
      | exception Netstack.Bad_socket _ -> err)

(** Network syscall handlers.  [recv] is the taint source for netflow tags:
    the kernel reports the flow and the physical extents the payload
    landed on, and FAROS's taint-insertion pass tags every byte they cover,
    one shadow range write per extent. *)

type handler := Kstate.t -> Process.t -> int array -> int

val socket : handler
val connect : handler
val send : handler
val recv : handler

val bind : handler
val listen : handler

val accept : handler
(** Non-blocking: returns a fresh handle or -1; guests poll.  Emits
    [Net_accept] with the accepted connection's flow. *)

val poll : handler
(** Readiness bitmask for a socket handle — lets a server yield instead of
    busy-spinning on non-blocking [accept]/[recv]. *)

(* Loader and device syscalls. *)

let err = -1 land Faros_vm.Word.mask
let max_io = 1 lsl 16

(* r1 = name ptr, r2 = name len.  Loads a DLL image file into the caller's
   address space; this is the benign Windows loading path the reflective
   technique bypasses.  Returns the module base, or -1 (nothing mapped)
   for a missing, malformed, badly laid-out or unlinkable image. *)
let load_library (k : Kstate.t) (p : Process.t) args =
  let name = Kstate.read_guest_string k p args.(0) args.(1) in
  match List.assoc_opt name p.modules with
  | Some img -> img.Pe.base
  | None -> (
    match Spawn.read_image k name with
    | None -> err
    | Some (image_bytes, version) -> (
      match Loader.load k.machine.mmu p.space k.exports (Pe.parse image_bytes) with
      | exception (Pe.Bad_image _ | Loader.Unresolved_import _) -> err
      | loaded ->
        p.modules <- (name, loaded.ld_image) :: p.modules;
        Spawn.image_loaded k ~pid:p.pid ~path:name ~version loaded;
        loaded.ld_image.base))

(* r1 = name ptr, r2 = name len.  Kernel-side symbol resolution: looks up
   kernel exports first, then the caller's loaded modules.  The process
   never touches the export directory itself. *)
let get_proc_address (k : Kstate.t) (p : Process.t) args =
  let name = Kstate.read_guest_string k p args.(0) args.(1) in
  match List.assoc_opt name k.exports.exports with
  | Some addr -> addr
  | None ->
    let rec scan = function
      | [] -> err
      | (_, img) :: rest -> (
        match List.assoc_opt name img.Pe.exports with
        | Some addr -> addr
        | None -> scan rest)
    in
    scan p.modules

(* Returns the next scripted keystroke (0 when exhausted). *)
let key_read (k : Kstate.t) (p : Process.t) _ =
  let key = Input_dev.read_key k.input in
  if key <> 0 then Kstate.emit k (Os_event.Key_read { pid = p.pid; key });
  key

(* r1 = buf, r2 = len *)
let audio_record (k : Kstate.t) (p : Process.t) args =
  let len = args.(1) in
  if len <= 0 || len > max_io then err
  else begin
    Kstate.write_guest_bytes k p args.(0) (Input_dev.read_audio k.input len);
    Kstate.emit k (Os_event.Audio_read { pid = p.pid; bytes = len });
    len
  end

(* r1 = buf, r2 = len *)
let screenshot (k : Kstate.t) (p : Process.t) args =
  let len = args.(1) in
  if len <= 0 || len > max_io then err
  else begin
    Kstate.write_guest_bytes k p args.(0) (Input_dev.read_frame k.input len);
    Kstate.emit k (Os_event.Screenshot { pid = p.pid; bytes = len });
    len
  end

(* r1 = text ptr, r2 = len *)
let popup (k : Kstate.t) (p : Process.t) args =
  let text = Kstate.read_guest_string k p args.(0) (min args.(1) max_io) in
  Kstate.emit k (Os_event.Popup { pid = p.pid; text });
  0

(* r1 = text ptr, r2 = len *)
let debug_print (k : Kstate.t) (p : Process.t) args =
  let text = Kstate.read_guest_string k p args.(0) (min args.(1) max_io) in
  Kstate.emit k (Os_event.Debug_print { pid = p.pid; text });
  0

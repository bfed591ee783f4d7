(* Analysis reports: flagged instructions with full provenance, rendered in
   the format of Table II. *)

type flag = {
  f_tick : int;  (* global instruction count at flag time *)
  f_pc : int;  (* address of the flagged load (Table II's memory address) *)
  f_asid : int;  (* CR3 of the flagged process, for pid resolution *)
  f_process : string;  (* process executing the injected code *)
  f_instr : Faros_vm.Isa.t;
  f_instr_prov : Faros_dift.Provenance.t;
  f_read_vaddr : int;  (* export-table address the load read *)
  f_read_prov : Faros_dift.Provenance.t;
  f_whitelisted : bool;
}

type t = {
  mutable flags : flag list;  (* newest first *)
  mutable suppressed : int;  (* whitelisted flag count *)
}

let create () = { flags = []; suppressed = 0 }

let add t flag =
  t.flags <- flag :: t.flags;
  if flag.f_whitelisted then t.suppressed <- t.suppressed + 1

let flags t = List.rev t.flags

let effective_flags t = List.filter (fun f -> not f.f_whitelisted) (flags t)

let flagged t = effective_flags t <> []

(* Distinct (process, pc) pairs — one line per injected instruction. *)
let flagged_sites t =
  List.fold_left
    (fun acc f ->
      let key = (f.f_process, f.f_pc) in
      if List.mem_assoc key acc then acc else (key, f) :: acc)
    []
    (effective_flags t)
  |> List.rev_map snd

(* -- rendering -- *)

(* Human description of one tag, resolved against the tag store. *)
let describe_tag ~(store : Faros_dift.Tag_store.t) ~name_of_asid tag =
  match (tag : Faros_dift.Tag.t) with
  | Netflow i -> (
    match Faros_dift.Tag_store.netflow_of store i with
    | Some flow -> Fmt.str "NetFlow: %a" Faros_os.Types.pp_flow flow
    | None -> Fmt.str "NetFlow: #%d" i)
  | Process i -> (
    match Faros_dift.Tag_store.cr3_of store i with
    | Some asid -> Fmt.str "Process: %s" (name_of_asid asid)
    | None -> Fmt.str "Process: #%d" i)
  | File i -> (
    match Faros_dift.Tag_store.file_of store i with
    | Some f ->
      Fmt.str "File: %s (v%d)" f.Faros_dift.Tag_store.file_name
        f.Faros_dift.Tag_store.file_version
    | None -> Fmt.str "File: #%d" i)
  | Export_table i -> (
    match Faros_dift.Tag_store.export_of store i with
    | Some name -> Fmt.str "Export-table: %s" name
    | None -> "Export-table")

(* Provenance rendered oldest-first with " -> " separators, as Table II
   prints it (origin first: NetFlow -> inject_client.exe -> notepad.exe). *)
let render_provenance ~store ~name_of_asid prov =
  List.rev (Faros_dift.Provenance.to_list prov)
  |> List.map (describe_tag ~store ~name_of_asid)
  |> String.concat " -> "

let pp_flag ~store ~name_of_asid ppf flag =
  Fmt.pf ppf "0x%08X  %s;" flag.f_pc
    (render_provenance ~store ~name_of_asid flag.f_instr_prov)

(* The Table II layout: memory address column and provenance column. *)
let pp_table ~store ~name_of_asid ppf t =
  Fmt.pf ppf "%-14s %s@." "Memory Address" "Provenance List";
  List.iter
    (fun flag -> Fmt.pf ppf "%a@." (pp_flag ~store ~name_of_asid) flag)
    (flagged_sites t)

(* -- machine-readable export -- *)

(* A self-contained JSON document an analyst can archive with the sample:
   one object per flag with resolved provenance strings. *)
let to_json ~store ~name_of_asid t : Faros_obs.Json.t =
  let hex v = Faros_obs.Json.Str (Printf.sprintf "0x%08X" v) in
  let provenance prov =
    Faros_obs.Json.Str (render_provenance ~store ~name_of_asid prov)
  in
  let flag_json (f : flag) : Faros_obs.Json.t =
    Obj
      [ ("tick", Int f.f_tick); ("pc", hex f.f_pc); ("process", Str f.f_process);
        ("instruction", Str (Faros_vm.Disasm.to_string f.f_instr));
        ("instr_provenance", provenance f.f_instr_prov); ("read_vaddr", hex f.f_read_vaddr);
        ("read_provenance", provenance f.f_read_prov); ("whitelisted", Bool f.f_whitelisted) ]
  in
  Obj
    [ ("flagged", Bool (flagged t)); ("suppressed", Int t.suppressed);
      ("flags", List (List.map flag_json (flags t))) ]

let summary t =
  Fmt.str "%d flagged load(s) at %d site(s), %d whitelisted"
    (List.length (effective_flags t))
    (List.length (flagged_sites t))
    t.suppressed

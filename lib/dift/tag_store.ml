(* The tag hash maps of Fig. 5.

   Each map interns the payload of one tag type — netflow 4-tuples, process
   CR3 values, (file name, version) pairs, exported function names — and
   hands out the 16-bit index a prov_tag carries.  Entries exist only for
   objects that have been involved with tainted bytes, which is what bounds
   the maps. *)

type file_id = { file_name : string; file_version : int }

(* One map: payload -> index, its reverse, and the next index to mint. *)
type 'k table = {
  name : string;  (* named in the overflow message *)
  fwd : ('k, int) Hashtbl.t;
  rev : (int, 'k) Hashtbl.t;
  mutable next : int;
}

type t = {
  netflows : Faros_os.Types.flow table;
  processes : int table;  (* cr3 -> index *)
  files : file_id table;
  exports : string table;  (* exported function name -> index *)
}

let table name = { name; fwd = Hashtbl.create 16; rev = Hashtbl.create 16; next = 0 }

let create () =
  {
    netflows = table "netflow";
    processes = table "process";
    files = table "file";
    exports = table "export";
  }

exception Overflow of string

(* prov_tags carry 16-bit indices on the wire (Fig. 6); refuse to mint an
   index that cannot be encoded, naming the store that filled up, instead
   of letting Tag.encode raise much later with no hint of the culprit. *)
let max_index = 0xFFFF

let intern tbl key =
  match Hashtbl.find_opt tbl.fwd key with
  | Some i -> i
  | None ->
    let i = tbl.next in
    if i > max_index then
      raise
        (Overflow
           (Printf.sprintf
              "%s tag store overflow: index %d does not fit the 16-bit \
               prov_tag wire format"
              tbl.name i));
    tbl.next <- i + 1;
    Hashtbl.replace tbl.fwd key i;
    Hashtbl.replace tbl.rev i key;
    i

let netflow t flow = Tag.Netflow (intern t.netflows flow)
let process t cr3 = Tag.Process (intern t.processes cr3)

let file t ~name ~version =
  Tag.File (intern t.files { file_name = name; file_version = version })

(* The future-work extension of Section V-A: export-table tags carrying the
   touched function's identity. *)
let export t ~name = Tag.Export_table (intern t.exports name)

let process_index t cr3 = Hashtbl.find_opt t.processes.fwd cr3

let netflow_of t i = Hashtbl.find_opt t.netflows.rev i
let cr3_of t i = Hashtbl.find_opt t.processes.rev i
let file_of t i = Hashtbl.find_opt t.files.rev i
let export_of t i = Hashtbl.find_opt t.exports.rev i

let netflow_count t = t.netflows.next
let process_count t = t.processes.next
let file_count t = t.files.next
let export_count t = t.exports.next

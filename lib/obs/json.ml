(* Minimal JSON support shared by the exporters and the segment store.

   The repo deliberately avoids external JSON dependencies.  Every
   document it writes is a [t] rendered by [to_buffer], the one renderer,
   and [parse] is the one recursive-descent reader.  It takes the
   strict RFC 8259 grammar (no leading zeros, digits required after '.'
   and after an exponent marker, no raw bytes below 0x20 inside strings,
   exactly four hex digits after \u, at most [max_depth] nested arrays
   and objects) and reports the first error as "<msg> at offset <n>".
   [well_formed], what the tests and `faros check-json` use, is [parse]
   with the value dropped, so the checker and the store cannot disagree
   about what a document is. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let max_depth = 512

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* UTF-8 encode a BMP code point (our emitters only produce \u00XX for
   control bytes; surrogate pairs are not recombined). *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some (String.unsafe_get s !pos) else None in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  let at_digit () =
    !pos < n && match String.unsafe_get s !pos with '0' .. '9' -> true | _ -> false
  in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      advance ()
    done
  in
  let expect c = if at c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %S" word)
  in
  (* Strings without escapes are one [String.sub]; the first backslash
     switches to a buffer seeded with what was scanned so far. *)
  let string_lit () =
    expect '"';
    let start = !pos in
    let rec escaped buf =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char buf c; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            let d = match peek () with Some c -> hex_value c | None -> -1 in
            if d < 0 then fail "bad \\u escape";
            code := (!code lsl 4) lor d;
            advance ()
          done;
          add_utf8 buf !code
        | _ -> fail "bad escape");
        escaped buf
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        escaped buf
    in
    let rec plain () =
      if !pos >= n then fail "unterminated string"
      else
        match String.unsafe_get s !pos with
        | '"' ->
          let str = String.sub s start (!pos - start) in
          advance ();
          str
        | '\\' ->
          let buf = Buffer.create (!pos - start + 16) in
          Buffer.add_substring buf s start (!pos - start);
          escaped buf
        | c when Char.code c < 0x20 -> fail "control character in string"
        | _ ->
          advance ();
          plain ()
    in
    plain ()
  in
  let digits () =
    let start = !pos in
    while at_digit () do
      advance ()
    done;
    if !pos = start then fail "expected digit"
  in
  (* An integer with no fraction or exponent is an [Int] (a [Float] when it
     overflows the native int); anything else is a [Float]. *)
  let number () =
    let start = !pos in
    if at '-' then advance ();
    (* integer part: a lone 0, or a nonzero-led digit run (no leading 0s) *)
    (match peek () with
    | Some '0' ->
      advance ();
      if at_digit () then fail "leading zero"
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected digit");
    let int_end = !pos in
    let frac = at '.' in
    if frac then begin
      advance ();
      digits ()
    end;
    let exp = at 'e' || at 'E' in
    if exp then begin
      advance ();
      if at '+' || at '-' then advance ();
      digits ()
    end;
    let token () = String.sub s start (!pos - start) in
    if frac || exp then Float (float_of_string (token ()))
    else if int_end - start <= 18 then begin
      (* at most 18 characters, sign included: cannot overflow *)
      let neg = String.unsafe_get s start = '-' in
      let v = ref 0 in
      for i = (if neg then start + 1 else start) to int_end - 1 do
        v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
      done;
      Int (if neg then - !v else !v)
    end
    else
      match int_of_string_opt (token ()) with
      | Some i -> Int i
      | None -> Float (float_of_string (token ()))
  in
  (* [depth] counts the arrays and objects open around the value, so a
     line of brackets fails at the first one too many instead of
     recursing once per byte. *)
  let rec value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth = max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if at '}' then begin
        advance ();
        Obj []
      end
      else
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else
        let rec elements acc =
          let v = value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  in
  match
    let v = value 0 in
    skip_ws ();
    v
  with
  | v when !pos = n -> Ok v
  | _ -> Error (Printf.sprintf "trailing garbage at offset %d" !pos)
  | exception Bad msg -> Error msg

let well_formed s = match parse s with Ok _ -> Ok () | Error e -> Error e

(* '"', '\\' and '\n' get their short escapes, every other byte below
   0x20 a \u00XX escape, and all other bytes pass through, so [parse]
   gives every string back byte for byte. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let from = ref 0 in
  String.iteri
    (fun i c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !from (i - !from);
        from := i + 1;
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Printf.bprintf buf "\\u%04x" (Char.code c)
      end)
    s;
  Buffer.add_substring buf s !from (String.length s - !from);
  Buffer.add_char buf '"'

let add_seq buf opening closing add xs =
  Buffer.add_char buf opening;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; add x) xs;
  Buffer.add_char buf closing

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f when Float.is_finite f -> Printf.bprintf buf "%.6f" f
  | Float _ -> Buffer.add_string buf "null"
  | Str s -> add_string buf s
  | List vs -> add_seq buf '[' ']' (to_buffer buf) vs
  | Obj kvs ->
    let member (k, v) = add_string buf k; Buffer.add_char buf ':'; to_buffer buf v in
    add_seq buf '{' '}' member kvs

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* JSONL: every non-empty line must be a well-formed JSON value.
   Returns the number of validated lines, or the first offending line
   (1-based) with its error. *)
let well_formed_lines s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno ok = function
    | [] -> Ok ok
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) ok rest
      else (
        match well_formed line with
        | Ok () -> go (lineno + 1) (ok + 1) rest
        | Error msg -> Error (lineno, msg))
  in
  go 1 0 lines

(* -- accessors -- *)

let mem v key = match v with Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_strings = function
  | List l ->
    let strs = List.filter_map to_str l in
    if List.length strs = List.length l then Some strs else None
  | _ -> None

let int_mem v key = Option.bind (mem v key) to_int
let str_mem v key = Option.bind (mem v key) to_str

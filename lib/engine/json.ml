type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Deterministic float rendering: integers without a fractional part,
   everything else with enough digits to be stable across runs.  JSON has
   no NaN/infinity, so those degrade to null. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let add_indent buf n = Buffer.add_string buf (String.make n ' ')

let rec emit buf ~minify ~level v =
  let nl () = if not minify then Buffer.add_char buf '\n' in
  let pad n = if not minify then add_indent buf n in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v when not (Float.is_finite v) -> Buffer.add_string buf "null"
  | Float v -> Buffer.add_string buf (float_repr v)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 2);
        emit buf ~minify ~level:(level + 2) item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (key, value) ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          nl ()
        end;
        pad (level + 2);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape key);
        Buffer.add_string buf (if minify then "\":" else "\": ");
        emit buf ~minify ~level:(level + 2) value)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(minify = false) v =
  let buf = Buffer.create 256 in
  emit buf ~minify ~level:0 v;
  Buffer.contents buf

let to_channel ?minify oc v =
  output_string oc (to_string ?minify v);
  output_char oc '\n'

(* Recursive-descent parser over a string with an explicit cursor.  Covers
   the JSON actually produced by [to_string] plus standard escapes, so
   cache entries, work queues and fuzz reproducers round-trip. *)

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos
    else fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    (* Only the BMP: surrogate pairs degrade to two 3-byte sequences, which
       is fine for the ASCII-dominated documents this engine emits. *)
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
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (if !pos >= n then fail !pos "unterminated escape";
         match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; incr pos
         | '\\' -> Buffer.add_char buf '\\'; incr pos
         | '/' -> Buffer.add_char buf '/'; incr pos
         | 'n' -> Buffer.add_char buf '\n'; incr pos
         | 'r' -> Buffer.add_char buf '\r'; incr pos
         | 't' -> Buffer.add_char buf '\t'; incr pos
         | 'b' -> Buffer.add_char buf '\b'; incr pos
         | 'f' -> Buffer.add_char buf '\012'; incr pos
         | 'u' ->
           if !pos + 4 >= n then fail !pos "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           (match int_of_string_opt ("0x" ^ hex) with
           | Some code -> add_utf8 buf code
           | None -> fail !pos (Printf.sprintf "bad \\u escape %S" hex));
           pos := !pos + 5
         | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
        loop ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    let is_float = ref false in
    let rec scan () =
      match peek () with
      | '0' .. '9' ->
        incr pos;
        scan ()
      | '.' | 'e' | 'E' | '+' | '-' ->
        is_float := true;
        incr pos;
        scan ()
      | _ -> ()
    in
    scan ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some v -> Float v
      | None -> fail start (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> (
        (* Integer syntax but beyond native int range. *)
        match float_of_string_opt text with
        | Some v -> Float v
        | None -> fail start (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = ',' do
          incr pos;
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (key, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | '\255' -> fail !pos "unexpected end of input"
    | c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos < n then Error (Printf.sprintf "trailing data at offset %d" !pos)
    else Ok v
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "at offset %d: %s" p msg)

(* Lookup helpers for validating parsed documents. *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

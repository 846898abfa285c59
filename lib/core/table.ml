module Json = Engine.Json

type t = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~columns ?(notes = []) rows =
  { id; title; columns; rows; notes }

let fnum v =
  if Float.is_integer v && Float.abs v < 1e6 then
    Printf.sprintf "%.0f" v
  else if Float.abs v >= 100. then Printf.sprintf "%.1f" v
  else if Float.abs v >= 1. then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4f" v

let fpct v = Printf.sprintf "%.2f%%" (100. *. v)

let csv_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else cell

(* Strict CSV: header plus data rows only.  Notes are NOT embedded as
   "# ..." comment lines — they corrupt strict CSV consumers — but live in
   the run manifest and in the sidecar written by [save_csv]. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  line t.columns;
  List.iter line t.rows;
  Buffer.contents buf

let rec ensure_dir dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      invalid_arg
        (Printf.sprintf "Table.ensure_dir: %s exists and is not a directory"
           dir)
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "" then ensure_dir parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
    (* lost a race with a concurrent creator: fine *)
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Write-then-rename so a crashed or concurrent writer can never leave a
   torn file under the final name.  The temp name must be unique per
   writer: with a fixed [path ^ ".tmp"], two processes sharing a
   directory could interleave open/write/rename and publish a torn file.
   [Filename.temp_file] creates the file exclusively. *)
let write_file_atomic ?temp_dir path contents =
  let temp_dir = Option.value temp_dir ~default:(Filename.dirname path) in
  let tmp = Filename.temp_file ~temp_dir (Filename.basename path) ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc contents
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  Sys.rename tmp path

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let save_csv ~dir t =
  ensure_dir dir;
  let path = Filename.concat dir (t.id ^ ".csv") in
  write_file path (to_csv t);
  if t.notes <> [] then
    write_file
      (Filename.concat dir (t.id ^ ".notes.txt"))
      (String.concat "\n" t.notes ^ "\n");
  path

(* ------------------------------------------------------------------ *)
(* JSONL round-trip                                                    *)
(* ------------------------------------------------------------------ *)

(* One JSON object per row: {"row": i, "cells": {"col": "raw cell", ...}}.
   Cells stay the exact strings of the table so JSONL and CSV always agree
   byte-for-byte on content.  Ragged rows keep only cells that have a
   column; missing trailing cells are omitted. *)
let jsonl_row t i row =
  let cells =
    List.filter_map
      (fun (j, cell) ->
        match List.nth_opt t.columns j with
        | Some col -> Some (col, Json.String cell)
        | None -> None)
      (List.mapi (fun j cell -> (j, cell)) row)
  in
  Json.to_string ~minify:true
    (Json.Obj [ ("row", Json.Int i); ("cells", Json.Obj cells) ])

(* Rows-only rendering: exactly what [Manifest.save_jsonl] writes next to
   the CSV (one minified object per line, trailing newline). *)
let rows_to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i row ->
      Buffer.add_string buf (jsonl_row t i row);
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

(* Full-fidelity rendering: a header object carrying the metadata that the
   rows-only form keeps in sidecars (title, notes) or filenames (id),
   followed by the exact row lines of [rows_to_jsonl].  This is the result
   cache's storage format; [of_jsonl] inverts it. *)
let to_jsonl t =
  let strings xs = Json.List (List.map (fun s -> Json.String s) xs) in
  let header =
    Json.Obj
      [
        ("id", Json.String t.id);
        ("title", Json.String t.title);
        ("columns", strings t.columns);
        ("notes", strings t.notes);
      ]
  in
  Json.to_string ~minify:true header ^ "\n" ^ rows_to_jsonl t

(* Inverse of [to_jsonl].  The round-trip is exact — [Manifest.table_digest]
   is preserved byte-for-byte — for every table whose rows are at most as
   wide as its column list (wider rows are truncated at write time, a
   pre-existing property of the JSONL form).  Duplicate column names are
   handled by consuming cell fields in order. *)
let of_jsonl s =
  let ( let* ) = Result.bind in
  let lines =
    (* A trailing newline yields one empty trailing chunk; embedded
       newlines inside cells are escaped, so line = object. *)
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_line l =
    match Json.of_string l with
    | Ok v -> Ok v
    | Error e -> Error (Printf.sprintf "bad jsonl line: %s" e)
  in
  let string_field obj name =
    match Json.member name obj with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "header field %S missing or not a string" name)
  in
  let strings_field obj name =
    match Json.member name obj with
    | Some (Json.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.String s -> Ok (s :: acc)
          | _ -> Error (Printf.sprintf "header field %S holds a non-string" name))
        (Ok []) items
      |> Result.map List.rev
    | _ -> Error (Printf.sprintf "header field %S missing or not a list" name)
  in
  match lines with
  | [] -> Error "empty jsonl document"
  | header :: row_lines ->
    let* header = parse_line header in
    let* id = string_field header "id" in
    let* title = string_field header "title" in
    let* columns = strings_field header "columns" in
    let* notes = strings_field header "notes" in
    let parse_row i line =
      let* obj = parse_line line in
      let* () =
        match Json.member "row" obj with
        | Some (Json.Int j) when j = i -> Ok ()
        | Some (Json.Int j) ->
          Error (Printf.sprintf "row index %d where %d expected" j i)
        | _ -> Error "row line without a row index"
      in
      let* fields =
        match Json.member "cells" obj with
        | Some (Json.Obj fields) -> Ok fields
        | _ -> Error "row line without a cells object"
      in
      (* Rebuild the row by walking the columns in order, consuming the
         first remaining field with that name each time (robust to
         duplicate column names).  Cells are omitted only from the tail,
         so the first absent column ends the row; leftover fields after
         that mean the line does not describe this table. *)
      let remaining = ref fields in
      let cells = ref [] in
      let stopped = ref false in
      List.iter
        (fun col ->
          if not !stopped then
            let rec take acc = function
              | [] -> None
              | (k, v) :: rest when String.equal k col ->
                Some (v, List.rev_append acc rest)
              | kv :: rest -> take (kv :: acc) rest
            in
            match take [] !remaining with
            | Some (Json.String cell, rest) ->
              remaining := rest;
              cells := cell :: !cells
            | Some _ -> stopped := true
            | None -> stopped := true)
        columns;
      if !remaining <> [] then
        Error (Printf.sprintf "row %d has cells for unknown columns" i)
      else Ok (List.rev !cells)
    in
    let* rows =
      List.fold_left
        (fun acc (i, line) ->
          let* acc = acc in
          let* row = parse_row i line in
          Ok (row :: acc))
        (Ok [])
        (List.mapi (fun i line -> (i, line)) row_lines)
      |> Result.map List.rev
    in
    Ok (make ~id ~title ~columns ~notes rows)

let print fmt t =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          (String.length col) t.rows)
      t.columns
  in
  let pad width s = s ^ String.make (max 0 (width - String.length s)) ' ' in
  let line cells =
    let padded = List.map2 pad widths cells in
    Format.fprintf fmt "  %s@." (String.concat "  " padded)
  in
  Format.fprintf fmt "@.== %s: %s ==@." (String.uppercase_ascii t.id) t.title;
  line t.columns;
  line (List.map (fun w -> String.make w '-') widths);
  List.iter
    (fun row ->
      (* Ragged rows are padded with empties so print never raises. *)
      let n = List.length t.columns in
      let row =
        if List.length row >= n then List.filteri (fun i _ -> i < n) row
        else row @ List.init (n - List.length row) (fun _ -> "")
      in
      line row)
    t.rows;
  List.iter (fun note -> Format.fprintf fmt "  note: %s@." note) t.notes

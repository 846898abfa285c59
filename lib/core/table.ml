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
(* JSONL rows                                                          *)
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

(* Rows-only rendering: the [<id>.jsonl] file written next to the CSV
   (one minified object per line, trailing newline). *)
let rows_to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i row ->
      Buffer.add_string buf (jsonl_row t i row);
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

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

(** Plain-text result tables: every experiment renders one (or more) of
    these, mirroring a figure of the paper.  This module writes the text,
    CSV and rows-only JSONL forms; the on-disk form of a cached table is
    {!Result_cache}'s own. *)

type t = {
  id : string;  (** e.g. "fig4" *)
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

val make :
  id:string ->
  title:string ->
  columns:string list ->
  ?notes:string list ->
  string list list ->
  t

val print : Format.formatter -> t -> unit

(** [ensure_dir dir] creates [dir] and any missing parents; raises
    [Invalid_argument] when a path component exists as a regular file. *)
val ensure_dir : string -> unit

(** The whole contents of the file at [path]. *)
val read_file : string -> string

(** [write_file_atomic ?temp_dir path contents] writes [contents] to a
    fresh temporary file in [temp_dir] (default: [path]'s directory, which
    must be on the same filesystem) and renames it onto [path], so no
    reader ever sees a torn file. *)
val write_file_atomic : ?temp_dir:string -> string -> string -> unit

(** Strict CSV rendering: header line and data rows only (notes are kept
    out of the body — see {!save_csv} and {!Manifest}).  Cells containing
    commas or quotes are quoted. *)
val to_csv : t -> string

(** [save_csv ~dir t] writes [dir/<id>.csv], creating [dir] (and parents)
    as needed; raises [Invalid_argument] when a path component exists as a
    regular file.  Non-empty notes go to a [dir/<id>.notes.txt] sidecar
    rather than into the CSV body. *)
val save_csv : dir:string -> t -> string

(** Rows-only JSONL: one minified JSON object per row,
    [{"row": i, "cells": {"<col>": "<raw cell>", ...}}], exactly the bytes
    of the [<id>.jsonl] file {!Manifest.write} puts next to the CSV.  Cells
    keep the exact strings of the table; ragged rows keep only cells that
    have a column. *)
val rows_to_jsonl : t -> string

(** Formatting helpers. *)
val fnum : float -> string

val fpct : float -> string

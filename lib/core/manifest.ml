module Json = Engine.Json

type emit = Csv | Jsonl | Both

let emit_of_string = function
  | "csv" -> Some Csv
  | "jsonl" -> Some Jsonl
  | "both" -> Some Both
  | _ -> None

let emit_to_string = function Csv -> "csv" | Jsonl -> "jsonl" | Both -> "both"

(* ------------------------------------------------------------------ *)
(* Table digests and JSONL rendering                                   *)
(* ------------------------------------------------------------------ *)

(* Content digest over everything that makes the table what it is: id,
   title, columns, rows and notes, with unambiguous separators so no two
   distinct tables can collide by concatenation. *)
let table_digest (t : Table.t) =
  let buf = Buffer.create 1024 in
  let field s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  field t.Table.id;
  field t.Table.title;
  List.iter field t.Table.columns;
  List.iter (fun row -> List.iter field row; field "|") t.Table.rows;
  List.iter field t.Table.notes;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* One JSON object per row: {"row": i, "cells": {"col": "raw cell", ...}}.
   The rendering lives in [Table] (shared with the result cache, whose
   [Table.of_jsonl] reader must invert these exact bytes). *)
let jsonl_of_table = Table.rows_to_jsonl

let save_jsonl ~dir (t : Table.t) =
  Table.ensure_dir dir;
  let path = Filename.concat dir (t.Table.id ^ ".jsonl") in
  let oc = open_out path in
  output_string oc (jsonl_of_table t);
  close_out oc;
  path

let save_table ~dir ~emit t =
  let paths = ref [] in
  (match emit with
  | Csv | Both -> paths := Table.save_csv ~dir t :: !paths
  | Jsonl -> ());
  (match emit with
  | Jsonl | Both -> paths := save_jsonl ~dir t :: !paths
  | Csv -> ());
  List.rev !paths

(* ------------------------------------------------------------------ *)
(* Run manifest                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything that describes WHAT was computed — and must therefore be
   byte-identical at any worker count.  Wall-clock and job count live in
   the separate, non-digested "timing" section. *)
let run_section ~experiment ~quick ~params ~tables =
  let table_entry (t : Table.t) =
    Json.Obj
      [
        ("id", Json.String t.Table.id);
        ("title", Json.String t.Table.title);
        ("columns", Json.List (List.map (fun c -> Json.String c) t.Table.columns));
        ("rows", Json.Int (List.length t.Table.rows));
        ("digest", Json.String (table_digest t));
        ("notes", Json.List (List.map (fun n -> Json.String n) t.Table.notes));
      ]
  in
  Json.Obj
    [
      ("experiment", Json.String experiment);
      ("quick", Json.Bool quick);
      (* Every scenario seeds its own Rng from a constant baked into the
         scenario definition, so the run section pins the whole stochastic
         state without a per-run seed input. *)
      ("seed_policy", Json.String "fixed-per-scenario");
      ("params", Json.Obj params);
      ("tables", Json.List (List.map table_entry tables));
    ]

let render ?cache ?backend ~experiment ~quick ~params ~emit ~jobs ~wall_s
    ~tables () =
  let run = run_section ~experiment ~quick ~params ~tables in
  let run_str = Json.to_string run in
  let digest = Digest.to_hex (Digest.string run_str) in
  (* Like jobs: which pool backend executed the sweep (domains vs
     processes) is engine configuration — both produce identical bytes —
     so it is recorded for provenance in the timing section only.  Absent
     (the historical default) unless a caller names one, keeping old
     manifests byte-stable. *)
  let backend_fields =
    match backend with
    | None -> []
    | Some b -> [ ("backend", Json.String b) ]
  in
  (* Like jobs, the cache record is engine configuration: hits vs
     misses change wall time only — a verified hit reproduces the same
     table bytes a fresh simulation would — so it stays out of the
     digested run section. *)
  let cache_fields =
    match cache with
    | None -> []
    | Some (hits, misses, fingerprint) ->
      [
        ( "cache",
          Json.Obj
            [
              ("hits", Json.Int hits);
              ("misses", Json.Int misses);
              ("fingerprint", Json.String fingerprint);
            ] );
      ]
  in
  let manifest =
    Json.Obj
      [
        ("schema", Json.String "slowcc-run-manifest/1");
        ("digest", Json.String digest);
        ("run", run);
        ( "timing",
          Json.Obj
            ([
               ("wall_s", Json.Float wall_s);
               ("jobs", Json.Int jobs);
               ("emit", Json.String (emit_to_string emit));
             ]
            @ backend_fields @ cache_fields) );
      ]
  in
  Json.to_string manifest ^ "\n"

let write ?cache ?backend ~dir ~experiment ~quick ~params ~emit ~jobs ~wall_s
    tables =
  Table.ensure_dir dir;
  List.iter (fun t -> ignore (save_table ~dir ~emit t)) tables;
  let path = Filename.concat dir "manifest.json" in
  let oc = open_out path in
  output_string oc
    (render ?cache ?backend ~experiment ~quick ~params ~emit ~jobs ~wall_s
       ~tables ());
  close_out oc;
  path

(* Naive single-field extraction, enough for tests and CI smoke checks
   without a JSON parser dependency. *)
let digest_of_file path =
  let contents = Table.read_file path in
  let key = "\"digest\": \"" in
  match String.index_opt contents '{' with
  | None -> None
  | Some _ -> (
    let rec find from =
      if from >= String.length contents then None
      else
        match String.index_from_opt contents from '"' with
        | None -> None
        | Some i ->
          if
            i + String.length key <= String.length contents
            && String.sub contents i (String.length key) = key
          then
            let start = i + String.length key in
            String.index_from_opt contents start '"'
            |> Option.map (fun stop ->
                   String.sub contents start (stop - start))
          else find (i + 1)
    in
    find 0)

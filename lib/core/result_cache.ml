module Json = Engine.Json

(* ------------------------------------------------------------------ *)
(* Cache instance                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  fingerprint : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let schema = "slowcc-result-cache/1"
let entry_suffix = ".entry"

(* The code fingerprint: a digest of the running executable.  Any rebuild
   — engine change, scenario tweak, compiler upgrade — changes it, so no
   cache entry survives a code change.  Hashed once per process. *)
let self_fingerprint =
  let memo = lazy (
    try Digest.to_hex (Digest.file Sys.executable_name)
    with Sys_error _ -> "unknown-executable")
  in
  fun () -> Lazy.force memo

let create ?fingerprint ~dir () =
  Table.ensure_dir dir;
  let fingerprint =
    match fingerprint with Some f -> f | None -> self_fingerprint ()
  in
  { dir; fingerprint; mutex = Mutex.create (); hits = 0; misses = 0 }

let dir t = t.dir
let fingerprint t = t.fingerprint

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

(* The key pins everything that determines the tables' bytes: the code
   (via the executable fingerprint), the experiment, the quick flag and
   the experiment's parameter record.  --jobs and the backend are
   deliberately absent — the engine guarantees byte-identical results at
   any worker count, so including them would only split the cache for no
   correctness gain. *)
let key t ~experiment ~quick ~params =
  let doc =
    Json.Obj
      [
        ("fingerprint", Json.String t.fingerprint);
        ("experiment", Json.String experiment);
        ("quick", Json.Bool quick);
        ("params", Json.Obj params);
      ]
  in
  Digest.to_hex (Digest.string (Json.to_string ~minify:true doc))

let entry_path t key = Filename.concat t.dir (key ^ entry_suffix)
let mem t ~key = Sys.file_exists (entry_path t key)

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

(* Entry layout: one meta line, then each table's full-fidelity JSONL
   (header line + one line per row):

     {"schema":"slowcc-result-cache/1","experiment":...,"quick":...,
      "fingerprint":...,"tables":[{"id":...,"lines":N,"digest":...},...]}
     {"id":...,"title":...,"columns":[...],"notes":[...]}
     {"row":0,"cells":{...}}
     ...

   The per-table digest is [Manifest.table_digest] of the table that was
   stored; a lookup recomputes it from the parsed bytes, so an entry that
   was truncated, hand-edited or bit-rotted is detected and discarded
   rather than trusted. *)

let render_entry t ~experiment ~quick tables =
  let buf = Buffer.create 4096 in
  let specs =
    List.map
      (fun (tbl : Table.t) ->
        Json.Obj
          [
            ("id", Json.String tbl.Table.id);
            ("lines", Json.Int (1 + List.length tbl.Table.rows));
            ("digest", Json.String (Manifest.table_digest tbl));
          ])
      tables
  in
  let meta =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("experiment", Json.String experiment);
        ("quick", Json.Bool quick);
        ("fingerprint", Json.String t.fingerprint);
        ("tables", Json.List specs);
      ]
  in
  Buffer.add_string buf (Json.to_string ~minify:true meta);
  Buffer.add_char buf '\n';
  List.iter (fun tbl -> Buffer.add_string buf (Table.to_jsonl tbl)) tables;
  Buffer.contents buf

let store t ~key ~experiment ~quick tables =
  let contents = render_entry t ~experiment ~quick tables in
  Table.write_file_atomic (entry_path t key) contents

(* Parse and verify one entry.  Any defect — unreadable file, wrong
   schema, bad table block, digest mismatch — yields [Error]. *)
let parse_entry contents =
  let ( let* ) = Result.bind in
  match String.index_opt contents '\n' with
  | None -> Error "no meta line"
  | Some nl ->
    let* meta =
      match Json.of_string (String.sub contents 0 nl) with
      | Ok m -> Ok m
      | Error e -> Error ("meta line: " ^ e)
    in
    let* () =
      match Json.member "schema" meta with
      | Some (Json.String s) when s = schema -> Ok ()
      | _ -> Error "schema tag missing or unknown"
    in
    let* specs =
      match Json.member "tables" meta with
      | Some (Json.List specs) -> Ok specs
      | _ -> Error "tables spec missing"
    in
    let body = String.sub contents (nl + 1) (String.length contents - nl - 1) in
    let lines = String.split_on_char '\n' body in
    let take n lines =
      let rec go acc n = function
        | rest when n = 0 -> Some (List.rev acc, rest)
        | [] -> None
        | l :: rest -> go (l :: acc) (n - 1) rest
      in
      go [] n lines
    in
    let* tables, leftover =
      List.fold_left
        (fun acc spec ->
          let* tables, lines = acc in
          let* n, recorded_digest =
            match
              (Json.member "lines" spec, Json.member "digest" spec)
            with
            | Some (Json.Int n), Some (Json.String d) when n > 0 -> Ok (n, d)
            | _ -> Error "bad table spec"
          in
          let* block, rest =
            match take n lines with
            | Some split -> Ok split
            | None -> Error "entry truncated"
          in
          let* table =
            Table.of_jsonl (String.concat "\n" block ^ "\n")
          in
          if Manifest.table_digest table <> recorded_digest then
            Error ("digest mismatch for table " ^ table.Table.id)
          else Ok (table :: tables, rest))
        (Ok ([], lines))
        specs
    in
    (match leftover with
    | [] | [ "" ] -> Ok (List.rev tables)
    | _ -> Error "trailing data after the last table")

let lookup t ~key =
  let path = entry_path t key in
  let verdict =
    if not (Sys.file_exists path) then None
    else
      match parse_entry (Table.read_file path) with
      | Ok tables -> Some tables
      | Error _ | (exception Sys_error _) ->
        (* Self-healing: never trust stale bytes; drop the entry and let
           the caller re-simulate. *)
        (try Sys.remove path with Sys_error _ -> ());
        None
  in
  locked t (fun () ->
      match verdict with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
  verdict

(* ------------------------------------------------------------------ *)
(* Directory maintenance (no instance needed)                          *)
(* ------------------------------------------------------------------ *)

type dir_stats = { entries : int; entry_bytes : int }

let is_entry name = Filename.check_suffix name entry_suffix

let stats ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    { entries = 0; entry_bytes = 0 }
  else begin
    let entries = ref 0 and bytes = ref 0 in
    Array.iter
      (fun name ->
        if is_entry name then begin
          incr entries;
          let path = Filename.concat dir name in
          match open_in_bin path with
          | ic ->
            bytes := !bytes + in_channel_length ic;
            close_in_noerr ic
          | exception Sys_error _ -> ()
        end)
      (Sys.readdir dir);
    { entries = !entries; entry_bytes = !bytes }
  end

type prune_stats = { pruned : int; pruned_bytes : int; kept : int }

(* Age-based eviction for long-lived shared cache dirs.  Only entry files
   (and stranded atomic-write temps) are candidates; foreign files are
   none of our business.  The mtime callback keeps this module unix-free
   — the CLI passes a Unix.stat wrapper — and a path that cannot be
   statted (or vanished under a concurrent prune) is simply kept/skipped. *)
let prune ~dir ~older_than_s ~now ~mtime =
  let acc = { pruned = 0; pruned_bytes = 0; kept = 0 } in
  if not (Sys.file_exists dir && Sys.is_directory dir) then acc
  else
    Array.fold_left
      (fun acc name ->
        if not (is_entry name || Filename.check_suffix name ".tmp") then acc
        else begin
          let path = Filename.concat dir name in
          match mtime path with
          | Some m when now -. m > older_than_s ->
            let size =
              match open_in_bin path with
              | ic ->
                let n = in_channel_length ic in
                close_in_noerr ic;
                n
              | exception Sys_error _ -> 0
            in
            (match Sys.remove path with
            | () ->
              {
                acc with
                pruned = acc.pruned + 1;
                pruned_bytes = acc.pruned_bytes + size;
              }
            | exception Sys_error _ -> { acc with kept = acc.kept + 1 })
          | Some _ | None -> { acc with kept = acc.kept + 1 }
        end)
      acc (Sys.readdir dir)

let clear ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        (* [.tmp] files are stranded atomic-write temps (a writer that
           crashed between create and rename); sweep them too. *)
        if is_entry name || Filename.check_suffix name ".tmp" then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)

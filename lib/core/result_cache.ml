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

let schema = "slowcc-result-cache/2"
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

(* An entry is one minified JSON document:

     {"schema":"slowcc-result-cache/2","experiment":...,"quick":...,
      "fingerprint":...,"tables":[{"id":...,"title":...,"columns":[...],
      "notes":[...],"rows":[[...],...],"digest":...},...]}

   Rows are arrays of the table's exact cell strings, whatever their
   width.  [digest] is [Manifest.table_digest] of the table that was
   stored; a lookup recomputes it from the parsed bytes, so an entry that
   was truncated, hand-edited or bit-rotted is detected and discarded
   rather than trusted. *)

let strings xs = Json.List (List.map (fun s -> Json.String s) xs)

let table_json (tbl : Table.t) =
  Json.Obj
    [
      ("id", Json.String tbl.id);
      ("title", Json.String tbl.title);
      ("columns", strings tbl.columns);
      ("notes", strings tbl.notes);
      ("rows", Json.List (List.map strings tbl.rows));
      ("digest", Json.String (Manifest.table_digest tbl));
    ]

let store t ~key ~experiment ~quick tables =
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("experiment", Json.String experiment);
        ("quick", Json.Bool quick);
        ("fingerprint", Json.String t.fingerprint);
        ("tables", Json.List (List.map table_json tables));
      ]
  in
  Table.write_file_atomic (entry_path t key)
    (Json.to_string ~minify:true doc ^ "\n")

(* Parse and verify one entry.  Any defect (malformed JSON, a wrong shape
   or schema tag, a digest mismatch) raises [Bad_entry]. *)
exception Bad_entry

let field name doc =
  match Json.member name doc with Some v -> v | None -> raise Bad_entry

let str = function Json.String s -> s | _ -> raise Bad_entry
let list f = function Json.List items -> List.map f items | _ -> raise Bad_entry

let parse_table doc =
  let tbl =
    Table.make ~id:(str (field "id" doc)) ~title:(str (field "title" doc))
      ~columns:(list str (field "columns" doc))
      ~notes:(list str (field "notes" doc))
      (list (list str) (field "rows" doc))
  in
  if Manifest.table_digest tbl <> str (field "digest" doc) then raise Bad_entry;
  tbl

let parse_entry contents =
  match Json.of_string contents with
  | Error _ -> raise Bad_entry
  | Ok doc ->
    if str (field "schema" doc) <> schema then raise Bad_entry;
    list parse_table (field "tables" doc)

let lookup t ~key =
  let path = entry_path t key in
  let verdict =
    if not (Sys.file_exists path) then None
    else
      match parse_entry (Table.read_file path) with
      | tables -> Some tables
      | exception (Bad_entry | Sys_error _) ->
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

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
  (* Measured per-job wall seconds from previous runs, keyed by
     "<fp8>:<experiment>[:quick]#<job index>" where fp8 abbreviates the
     fingerprint of the binary that measured them.  Advisory only:
     estimates order the pool's execution (LPT), they never influence
     results, so a stale or missing entry is harmless — but scoping the
     keys by fingerprint keeps a rebuilt binary from ordering its jobs
     by a stale binary's clock. *)
  timings : (string, float) Hashtbl.t;
}

let schema = "slowcc-result-cache/1"
let timings_schema = "slowcc-timings/1"
let entry_suffix = ".entry"
let timings_file dir = Filename.concat dir "timings.json"

(* The code fingerprint: a digest of the running executable.  Any rebuild
   — engine change, scenario tweak, compiler upgrade — changes it, so no
   cache entry survives a code change.  Hashed once per process. *)
let self_fingerprint =
  let memo = lazy (
    try Digest.to_hex (Digest.file Sys.executable_name)
    with Sys_error _ -> "unknown-executable")
  in
  fun () -> Lazy.force memo

let load_timings dir tbl =
  let path = timings_file dir in
  if Sys.file_exists path then
    match Json.of_string (Table.read_file path) with
    | Ok doc -> (
      match (Json.member "schema" doc, Json.member "wall_s" doc) with
      | Some (Json.String s), Some (Json.Obj fields) when s = timings_schema ->
        List.iter
          (fun (key, v) ->
            match v with
            | Json.Float w -> Hashtbl.replace tbl key w
            | Json.Int w -> Hashtbl.replace tbl key (float_of_int w)
            | _ -> ())
          fields
      | _ -> () (* unknown schema: ignore, it will be rewritten *))
    | Error _ -> () (* corrupt timings are advisory; start fresh *)

let create ?fingerprint ~dir () =
  Table.ensure_dir dir;
  let fingerprint =
    match fingerprint with Some f -> f | None -> self_fingerprint ()
  in
  let timings = Hashtbl.create 64 in
  load_timings dir timings;
  { dir; fingerprint; mutex = Mutex.create (); hits = 0; misses = 0; timings }

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
(* Timing feedback                                                     *)
(* ------------------------------------------------------------------ *)

let estimate t key = locked t (fun () -> Hashtbl.find_opt t.timings key)

(* Timing keys are namespaced by an 8-hex-char fingerprint abbreviation:
   long enough that two binaries colliding is a non-event (estimates are
   advisory), short enough to keep timings.json readable. *)
let fp8 fingerprint =
  if String.length fingerprint > 8 then String.sub fingerprint 0 8
  else fingerprint

let timing_key_prefix ~fingerprint ~label =
  Printf.sprintf "%s:%s#" (fp8 fingerprint) label

let timing_sum t ~label =
  let prefix = timing_key_prefix ~fingerprint:t.fingerprint ~label in
  locked t (fun () ->
      Hashtbl.fold
        (fun k v acc ->
          if String.starts_with ~prefix k then
            Some (v +. Option.value acc ~default:0.)
          else acc)
        t.timings None)

let record t key wall_s =
  if Float.is_finite wall_s && wall_s >= 0. then
    locked t (fun () -> Hashtbl.replace t.timings key wall_s)

(* Merge-on-save: concurrent processes sharing a cache dir each measure a
   disjoint (or overlapping) set of jobs.  Writing only the in-memory
   table would let the last writer discard everyone else's measurements
   (lost update), so re-read the file first and overlay our entries on
   top — ours win on conflict, foreign keys survive.  The window between
   load and rename can still lose a racing writer's very latest numbers,
   but timings are advisory (they only order execution), so a rare stale
   estimate is harmless; losing a whole experiment's keys on every run
   was not. *)
let save_timings t =
  let merged = Hashtbl.create 64 in
  load_timings t.dir merged;
  locked t (fun () ->
      Hashtbl.iter (fun k v -> Hashtbl.replace merged k v) t.timings);
  let fields =
    Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String timings_schema); ("wall_s", Json.Obj fields);
      ]
  in
  Table.write_file_atomic (timings_file t.dir) (Json.to_string doc ^ "\n")

(* ------------------------------------------------------------------ *)
(* Scopes: job-timing namespaces for one experiment run                *)
(* ------------------------------------------------------------------ *)

type scope = {
  cache : t;
  label : string;
  now : unit -> float;
  mutable next_job : int;
}

let scope ?(now = Sys.time) t ~label = { cache = t; label; now; next_job = 0 }
let scope_cache s = s.cache
let scope_now s = s.now

(* Contiguous key block for one batch.  Batches submitted sequentially
   from the coordinating domain get stable keys across runs; nested
   batches racing from worker domains may permute blocks, which only
   perturbs estimates, never results. *)
let alloc_keys s n =
  let start = locked s.cache (fun () ->
      let v = s.next_job in
      s.next_job <- v + n;
      v)
  in
  let prefix =
    timing_key_prefix ~fingerprint:s.cache.fingerprint ~label:s.label
  in
  List.init n (fun i -> Printf.sprintf "%s%d" prefix (start + i))

(* ------------------------------------------------------------------ *)
(* Directory maintenance (no instance needed)                          *)
(* ------------------------------------------------------------------ *)

type dir_stats = {
  entries : int;
  entry_bytes : int;
  timing_entries : int;
  timing_entries_self : int;
}

let is_entry name = Filename.check_suffix name entry_suffix

let stats ?fingerprint ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    { entries = 0; entry_bytes = 0; timing_entries = 0; timing_entries_self = 0 }
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
    let tbl = Hashtbl.create 16 in
    load_timings dir tbl;
    let timing_entries_self =
      match fingerprint with
      | None -> 0
      | Some fp ->
        let prefix = fp8 fp ^ ":" in
        Hashtbl.fold
          (fun k _ acc -> if String.starts_with ~prefix k then acc + 1 else acc)
          tbl 0
    in
    {
      entries = !entries;
      entry_bytes = !bytes;
      timing_entries = Hashtbl.length tbl;
      timing_entries_self;
    }
  end

type prune_stats = { pruned : int; pruned_bytes : int; kept : int }

(* Age-based eviction for long-lived shared cache dirs.  Only entry files
   (and stranded atomic-write temps) are candidates; the timing store is
   tiny and always useful, and foreign files are none of our business.
   The mtime callback keeps this module unix-free — the CLI passes a
   Unix.stat wrapper — and a path that cannot be statted (or vanished
   under a concurrent prune) is simply kept/skipped. *)
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
        if
          is_entry name || name = "timings.json"
          || Filename.check_suffix name ".tmp"
        then try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)

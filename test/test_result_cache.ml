(* The content-addressed result cache: key sensitivity, digest-verified
   round-trips, self-healing on corruption, directory maintenance, and
   the end-to-end guarantee that a warm run reproduces a cold run's
   manifest and tables byte-for-byte. *)

module Json = Engine.Json
module Cache = Slowcc.Result_cache
module Manifest = Slowcc.Manifest
module Table = Slowcc.Table

let sample =
  Table.make ~id:"fig0" ~title:"sample"
    ~columns:[ "x"; "y" ]
    ~notes:[ "a note" ]
    [ [ "1"; "2" ]; [ "3"; "4,5" ] ]

let second =
  Table.make ~id:"fig0b" ~title:"second table" ~columns:[ "z" ] [ [ "9" ] ]

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "tmp-result-cache/case%d" !n in
    (* [Cache.clear] would keep foreign files, which some cases write. *)
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let params = [ ("alpha", Json.Float 0.5); ("n", Json.Int 4) ]

let tables_digests ts = List.map Manifest.table_digest ts

let test_store_lookup_roundtrip () =
  let c = Cache.create ~dir:(fresh_dir ()) () in
  let key = Cache.key c ~experiment:"fig0" ~quick:true ~params in
  Alcotest.(check (option (list string))) "empty cache misses" None
    (Option.map tables_digests (Cache.lookup c ~key));
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ sample; second ];
  (match Cache.lookup c ~key with
  | None -> Alcotest.fail "stored entry not found"
  | Some ts ->
    Alcotest.(check (list string))
      "tables round-trip digest-identical"
      (tables_digests [ sample; second ])
      (tables_digests ts));
  Alcotest.(check (pair int int)) "one miss then one hit" (1, 1)
    (Cache.hits c, Cache.misses c);
  (* A row wider than the column list keeps every cell. *)
  let wide =
    Table.make ~id:"fig0w" ~title:"wide row" ~columns:[ "a" ] [ [ "1"; "2" ] ]
  in
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ wide ];
  Alcotest.(check (option (list string))) "wide row round-trips"
    (Some (tables_digests [ wide ]))
    (Option.map tables_digests (Cache.lookup c ~key))

let test_key_sensitivity () =
  let c = Cache.create ~dir:(fresh_dir ()) () in
  let base = Cache.key c ~experiment:"fig0" ~quick:true ~params in
  Alcotest.(check string) "key is deterministic" base
    (Cache.key c ~experiment:"fig0" ~quick:true ~params);
  Alcotest.(check int) "key is md5 hex" 32 (String.length base);
  let different =
    [
      Cache.key c ~experiment:"fig1" ~quick:true ~params;
      Cache.key c ~experiment:"fig0" ~quick:false ~params;
      Cache.key c ~experiment:"fig0" ~quick:true
        ~params:[ ("alpha", Json.Float 0.6); ("n", Json.Int 4) ];
      Cache.key c ~experiment:"fig0" ~quick:true ~params:[];
    ]
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "name/quick/params all flip the key" true
        (k <> base))
    different

let test_fingerprint_invalidates () =
  (* Same directory, different code fingerprint: the old entry must not
     be served.  [create ?fingerprint] stands in for a rebuild. *)
  let dir = fresh_dir () in
  let v1 = Cache.create ~fingerprint:"code-v1" ~dir () in
  let k1 = Cache.key v1 ~experiment:"fig0" ~quick:true ~params in
  Cache.store v1 ~key:k1 ~experiment:"fig0" ~quick:true [ sample ];
  let v2 = Cache.create ~fingerprint:"code-v2" ~dir () in
  let k2 = Cache.key v2 ~experiment:"fig0" ~quick:true ~params in
  Alcotest.(check bool) "fingerprint flips the key" true (k1 <> k2);
  Alcotest.(check bool) "new code misses" true (Cache.lookup v2 ~key:k2 = None);
  Alcotest.(check bool) "old entry still served to old code" true
    (Cache.lookup v1 ~key:k1 <> None)

(* First index of [needle] in [haystack]; -1 when absent. *)
let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then -1
    else if String.sub haystack i n = needle then i
    else go (i + 1)
  in
  go 0

let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".entry")
  |> List.map (Filename.concat dir)

let test_corruption_self_heals () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key = Cache.key c ~experiment:"fig0" ~quick:true ~params in
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ sample ];
  let path =
    match entry_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)
  in
  (* Flip one byte of a stored cell ("4,5" -> "4,6"): the per-table
     digest check must reject, delete the entry and re-simulate. *)
  let bytes =
    In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string
  in
  let pos = find_sub (Bytes.to_string bytes) "4,5" in
  Alcotest.(check bool) "cell present in entry" true (pos >= 0);
  Bytes.set bytes (pos + 2) '6';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Cache.lookup c ~key = None);
  Alcotest.(check (list string)) "corrupt entry deleted" []
    (entry_files dir);
  (* Truncation is likewise caught. *)
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ sample; second ];
  let path = List.hd (entry_files dir) in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 10)));
  Alcotest.(check bool) "truncated entry reads as a miss" true
    (Cache.lookup c ~key = None);
  (* After healing, a store works again. *)
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ sample ];
  Alcotest.(check bool) "re-stored entry hits" true
    (Cache.lookup c ~key <> None);
  (* An entry in the older line-framed layout (a meta line with per-table
     line counts, then each table as a header line and row lines) is a
     miss and is deleted, although its digest is [sample]'s. *)
  Out_channel.with_open_bin
    (Filename.concat dir (key ^ ".entry"))
    (fun oc ->
      Out_channel.output_string oc
        "{\"schema\":\"slowcc-result-cache/1\",\"experiment\":\"fig0\",\
         \"quick\":true,\"fingerprint\":\"code-v1\",\"tables\":[{\"id\":\
         \"fig0\",\"lines\":3,\"digest\":\"39849133887c09ef9ffe6101f8c7de5b\"}]}\n\
         {\"id\":\"fig0\",\"title\":\"sample\",\"columns\":[\"x\",\"y\"],\
         \"notes\":[\"a note\"]}\n\
         {\"row\":0,\"cells\":{\"x\":\"1\",\"y\":\"2\"}}\n\
         {\"row\":1,\"cells\":{\"x\":\"3\",\"y\":\"4,5\"}}\n");
  Alcotest.(check bool) "old-layout entry reads as a miss" true
    (Cache.lookup c ~key = None);
  Alcotest.(check (list string)) "old-layout entry deleted" []
    (entry_files dir)

(* A file an older binary's timing store left behind: foreign to this
   cache, so [prune] and [clear] must leave it alone. *)
let old_timings dir =
  let path = Filename.concat dir "timings.json" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        "{\"schema\": \"slowcc-timings/1\", \"wall_s\": {}}\n");
  path

(* Satellite: age-based pruning deletes only entries past the cutoff and
   never touches foreign files. *)
let test_prune_by_age () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir () in
  let key_a = Cache.key c ~experiment:"figA" ~quick:true ~params in
  let key_b = Cache.key c ~experiment:"figB" ~quick:true ~params in
  Cache.store c ~key:key_a ~experiment:"figA" ~quick:true [ sample ];
  Cache.store c ~key:key_b ~experiment:"figB" ~quick:true [ second ];
  let timings = old_timings dir in
  (* Simulated clock: A and the foreign file are 100 s old, B is 10 s
     old; cutoff at 50 s. *)
  let now = 1000. in
  let mtime path =
    if find_sub path key_b >= 0 then Some (now -. 10.) else Some (now -. 100.)
  in
  let s = Cache.prune ~dir ~older_than_s:50. ~now ~mtime in
  Alcotest.(check int) "one entry pruned" 1 s.Cache.pruned;
  Alcotest.(check bool) "pruned bytes counted" true (s.Cache.pruned_bytes > 0);
  Alcotest.(check int) "one entry kept" 1 s.Cache.kept;
  Alcotest.(check bool) "old entry gone" true (Cache.lookup c ~key:key_a = None);
  Alcotest.(check bool) "young entry survives" true
    (Cache.lookup c ~key:key_b <> None);
  Alcotest.(check bool) "old timings.json untouched" true
    (Sys.file_exists timings)

let test_stats_and_clear () =
  let dir = fresh_dir () in
  let s0 = Cache.stats ~dir in
  Alcotest.(check int) "missing dir reads empty" 0 s0.Cache.entries;
  let c = Cache.create ~dir () in
  let key = Cache.key c ~experiment:"fig0" ~quick:true ~params in
  Cache.store c ~key ~experiment:"fig0" ~quick:true [ sample ];
  (* Foreign files must survive [clear]. *)
  Out_channel.with_open_bin (Filename.concat dir "README") (fun oc ->
      Out_channel.output_string oc "not a cache entry\n");
  let timings = old_timings dir in
  let s1 = Cache.stats ~dir in
  Alcotest.(check int) "one entry" 1 s1.Cache.entries;
  Alcotest.(check bool) "entry bytes counted" true (s1.Cache.entry_bytes > 0);
  Cache.clear ~dir;
  let s2 = Cache.stats ~dir in
  Alcotest.(check int) "entries cleared" 0 s2.Cache.entries;
  Alcotest.(check bool) "foreign file kept" true
    (Sys.file_exists (Filename.concat dir "README"));
  Alcotest.(check bool) "old timings.json kept" true (Sys.file_exists timings)

(* Satellite regression: the combined "all" record embeds one parameter
   object per experiment, so per-figure provenance (e.g. fig7's scenario
   parameters) survives into a combined manifest instead of the former
   empty [params: {}]. *)
let test_all_params_embed_figures () =
  let all = Slowcc.Experiments.params ~quick:true "all" in
  Alcotest.(check bool) "one record per experiment" true
    (List.length all = List.length Slowcc.Experiments.names);
  (match List.assoc_opt "fig7" all with
  | Some (Json.Obj fields) ->
    Alcotest.(check bool) "fig7 params are embedded, not empty" true
      (List.mem_assoc "bandwidth_bps" fields)
  | _ -> Alcotest.fail "fig7 record missing from the combined params");
  let rendered =
    Json.to_string
      (Manifest.run_section ~experiment:"all" ~quick:true ~params:all
         ~tables:[ sample ])
  in
  Alcotest.(check bool) "fig7 params visible in an 'all' manifest" true
    (find_sub rendered "bandwidth_bps" >= 0)

let member_path doc path =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some doc) path

let read_json path =
  match Json.of_string (Table.read_file path) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: %s" path e

(* End to end: running a simulated experiment twice against one cache
   directory on two domains must (a) leave only entries in the cache
   directory, (b) miss cold and hit warm, as the manifests' non-digested
   cache records show, (c) write byte-identical run sections, manifest
   digests and table files, and (d) match a run without a cache, whose
   manifest has no cache record. *)
let test_warm_run_reproduces_cold () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let run ~cache ~out =
    Engine.Pool.with_pool ~jobs:2 (fun pool ->
        match
          Slowcc.Experiments.run_to_dir ~quick:true ~pool ?cache
            ~emit:Manifest.Both ~dir:out ~jobs:2 "fig7"
        with
        | Some (manifest, _) -> read_json manifest
        | None -> Alcotest.fail "fig7 not found")
  in
  let cold = run ~cache:(Some cache) ~out:"tmp-result-cache/cold" in
  Alcotest.(check (list string))
    "only .entry files after a cold run" []
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".entry")));
  let warm = run ~cache:(Some cache) ~out:"tmp-result-cache/warm" in
  let fresh = run ~cache:None ~out:"tmp-result-cache/fresh" in
  let show = Option.fold ~none:"none" ~some:(Json.to_string ~minify:true) in
  let cache_record m = show (member_path m [ "timing"; "cache" ]) in
  let expected hits misses =
    show
      (Some
         (Json.Obj
            [
              ("hits", Json.Int hits);
              ("misses", Json.Int misses);
              ("fingerprint", Json.String (Cache.fingerprint cache));
            ]))
  in
  Alcotest.(check string) "cold run misses once" (expected 0 1)
    (cache_record cold);
  Alcotest.(check string) "warm run hits once" (expected 1 0)
    (cache_record warm);
  Alcotest.(check string) "uncached run has no cache record" "none"
    (cache_record fresh);
  List.iter
    (fun key ->
      let field m = show (Json.member key m) in
      Alcotest.(check string) (key ^ " identical warm") (field cold) (field warm);
      Alcotest.(check string) (key ^ " identical uncached") (field cold)
        (field fresh))
    [ "digest"; "run" ];
  List.iter
    (fun name ->
      let read out = Table.read_file (Filename.concat out name) in
      let c = read "tmp-result-cache/cold" in
      Alcotest.(check string) (name ^ " identical warm") c
        (read "tmp-result-cache/warm");
      Alcotest.(check string) (name ^ " identical uncached") c
        (read "tmp-result-cache/fresh"))
    [ "fig7.csv"; "fig7.jsonl" ]

(* Property: a table stored in the cache comes back with the same
   [Manifest.table_digest], over randomized tables including awkward cell
   contents (commas, quotes, newlines, backslashes), duplicate column
   names and rows narrower, or one cell wider, than the column list. *)
let cell_gen =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; '0'; ','; '"'; '\\'; '\n'; ' '; '{' ])
      (int_range 0 8))

let table_gen =
  QCheck2.Gen.(
    let* n_cols = int_range 1 5 in
    (* A small name alphabet makes duplicate column names common. *)
    let* columns =
      list_repeat n_cols (oneofl [ "a"; "b"; "c"; "x"; "row"; "cells" ])
    in
    let* rows =
      list_size (int_range 0 6)
        (let* width = int_range 0 (n_cols + 1) in
         list_repeat width cell_gen)
    in
    let* id = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* title = cell_gen in
    let* notes = list_size (int_range 0 3) cell_gen in
    return (Table.make ~id ~title ~columns ~notes rows))

(* Made on first use, not at module load: the work queue tests run this
   executable again as worker processes. *)
let prop_cache = lazy (Cache.create ~dir:(fresh_dir ()) ())

let prop_store_lookup_digest =
  QCheck2.Test.make ~name:"store/lookup preserves the table digest"
    ~count:200 table_gen (fun t ->
      let c = Lazy.force prop_cache in
      let key = Cache.key c ~experiment:"prop" ~quick:true ~params in
      Cache.store c ~key ~experiment:"prop" ~quick:true [ t ];
      Option.map tables_digests (Cache.lookup c ~key)
      = Some (tables_digests [ t ]))

let suite =
  [
    Alcotest.test_case "store/lookup round-trip" `Quick
      test_store_lookup_roundtrip;
    Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
    Alcotest.test_case "fingerprint invalidates" `Quick
      test_fingerprint_invalidates;
    Alcotest.test_case "corruption self-heals" `Quick
      test_corruption_self_heals;
    Alcotest.test_case "prune by age" `Quick test_prune_by_age;
    Alcotest.test_case "stats and clear" `Quick test_stats_and_clear;
    Alcotest.test_case "'all' params embed figures" `Quick
      test_all_params_embed_figures;
    Alcotest.test_case "warm run reproduces cold" `Quick
      test_warm_run_reproduces_cold;
    QCheck_alcotest.to_alcotest prop_store_lookup_digest;
  ]

(* Run manifests: table digests, JSONL rendering, and the end-to-end
   guarantee that the digested portion is byte-identical at any --jobs. *)

module Json = Engine.Json
module Manifest = Slowcc.Manifest
module Table = Slowcc.Table

let sample =
  Table.make ~id:"fig0" ~title:"sample"
    ~columns:[ "x"; "y" ]
    ~notes:[ "a note" ]
    [ [ "1"; "2" ]; [ "3"; "4,5" ] ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The top-level digest, read with the one JSON parser. *)
let digest_of_file path =
  match Json.of_string (read_file path) with
  | Ok doc -> (
    match Json.member "digest" doc with
    | Some (Json.String d) -> Some d
    | _ -> None)
  | Error e -> Alcotest.fail e

let test_table_digest_sensitivity () =
  let d = Manifest.table_digest sample in
  Alcotest.(check int) "md5 hex" 32 (String.length d);
  Alcotest.(check string) "digest is stable" d (Manifest.table_digest sample);
  let changed_cell =
    Table.make ~id:"fig0" ~title:"sample" ~columns:[ "x"; "y" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "3"; "4,6" ] ]
  in
  Alcotest.(check bool) "cell change alters digest" true
    (d <> Manifest.table_digest changed_cell);
  (* Length-prefixed fields: moving a boundary between adjacent fields
     must not collide. *)
  let shifted =
    Table.make ~id:"fig0" ~title:"sample" ~columns:[ "x"; "y" ]
      ~notes:[ "a note" ]
      [ [ "12"; "" ]; [ "3"; "4,5" ] ]
  in
  Alcotest.(check bool) "field boundary matters" true
    (d <> Manifest.table_digest shifted)

let test_jsonl_rendering () =
  Alcotest.(check string) "one object per row"
    "{\"row\":0,\"cells\":{\"x\":\"1\",\"y\":\"2\"}}\n\
     {\"row\":1,\"cells\":{\"x\":\"3\",\"y\":\"4,5\"}}\n"
    (Table.rows_to_jsonl sample)

let test_write_and_digest_extraction () =
  let dir = "tmp-manifest/unit" in
  let path =
    Manifest.write ~dir ~experiment:"fig0" ~quick:true ~params:[]
      ~emit:Manifest.Both ~jobs:3 ~wall_s:1.25 [ sample ]
  in
  Alcotest.(check bool) "manifest written" true (Sys.file_exists path);
  Alcotest.(check bool) "csv written" true
    (Sys.file_exists (Filename.concat dir "fig0.csv"));
  Alcotest.(check bool) "jsonl written" true
    (Sys.file_exists (Filename.concat dir "fig0.jsonl"));
  let expected =
    let run =
      Manifest.run_section ~experiment:"fig0" ~quick:true ~params:[]
        ~tables:[ sample ]
    in
    Digest.to_hex (Digest.string (Json.to_string run))
  in
  match digest_of_file path with
  | Some d -> Alcotest.(check string) "digest field = md5(run)" expected d
  | None -> Alcotest.fail "digest field missing"

let test_timing_not_digested () =
  (* Different wall-clock and job count, same digest. *)
  let render ~jobs ~wall_s =
    Manifest.render ~experiment:"fig0" ~quick:false ~params:[]
      ~emit:Manifest.Csv ~jobs ~wall_s ~tables:[ sample ]
      ~cache:(3, 1, "fingerprint") ()
  in
  let digest_of s =
    let dir = "tmp-manifest/timing" in
    Table.ensure_dir dir;
    let path = Filename.concat dir "manifest.json" in
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    digest_of_file path
  in
  Alcotest.(check bool) "digest ignores timing" true
    (digest_of (render ~jobs:1 ~wall_s:10.) = digest_of (render ~jobs:8 ~wall_s:0.5))

(* The process backend is stamped in the timing section only: the run
   section, and so the digest, is the one a domain-pool run writes. *)
let test_backend_in_timing_only () =
  let render ?backend () =
    match
      Json.of_string
        (Manifest.render ?backend ~experiment:"fig0" ~quick:true ~params:[]
           ~emit:Manifest.Csv ~jobs:2 ~wall_s:1. ~tables:[ sample ] ())
    with
    | Ok doc -> doc
    | Error e -> Alcotest.fail e
  in
  let proc = render ~backend:"proc" () and plain = render () in
  let timing_backend doc =
    Option.bind (Json.member "timing" doc) (Json.member "backend")
  in
  Alcotest.(check bool) "timing names proc" true
    (timing_backend proc = Some (Json.String "proc"));
  Alcotest.(check bool) "no backend by default" true
    (timing_backend plain = None);
  Alcotest.(check bool) "not at top level" true
    (Json.member "backend" proc = None);
  Alcotest.(check bool) "run section unchanged" true
    (Json.member "run" proc = Json.member "run" plain);
  Alcotest.(check bool) "digest unchanged" true
    (Json.member "digest" proc = Json.member "digest" plain)

(* What a manifest promises its reader: the schema, a 32-hex digest, the
   run's identity, rows in every table, and one JSON document per line of
   the JSONL output. *)
let check_manifest_shape ~manifest ~jsonl =
  let doc =
    match Json.of_string (read_file manifest) with
    | Ok doc -> doc
    | Error e -> Alcotest.fail e
  in
  let field keys =
    List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) keys
  in
  Alcotest.(check bool) "schema" true
    (field [ "schema" ] = Some (Json.String "slowcc-run-manifest/1"));
  let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  (match field [ "digest" ] with
  | Some (Json.String d) ->
    Alcotest.(check bool) "32-hex digest" true
      (String.length d = 32 && String.for_all hex d)
  | _ -> Alcotest.fail "digest missing");
  Alcotest.(check bool) "experiment" true
    (field [ "run"; "experiment" ] = Some (Json.String "fig7"));
  Alcotest.(check bool) "quick" true
    (field [ "run"; "quick" ] = Some (Json.Bool true));
  (match field [ "run"; "tables" ] with
  | Some (Json.List (_ :: _ as tables)) ->
    List.iter
      (fun t ->
        match Json.member "rows" t with
        | Some (Json.Int n) when n > 0 -> ()
        | _ -> Alcotest.fail "a table has no rows")
      tables
  | _ -> Alcotest.fail "no tables");
  let lines = String.split_on_char '\n' (read_file jsonl) in
  List.iteri
    (fun i line ->
      if not (line = "" && i = List.length lines - 1) then
        match Json.of_string line with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "jsonl line %d: %s" (i + 1) e)
    lines

(* End to end: fig7 --quick at jobs=1 and jobs=4 must agree on every
   digested byte and on the tables themselves, and the manifest must
   have the shape {!check_manifest_shape} reads. *)
let test_fig7_jobs_invariance () =
  let run ~jobs ~dir =
    Engine.Pool.with_pool ~jobs (fun pool ->
        match
          Slowcc.Experiments.run_to_dir ~quick:true ~pool
            ~emit:Manifest.Both ~dir ~jobs "fig7"
        with
        | Some (manifest_path, tables) -> (manifest_path, tables)
        | None -> Alcotest.fail "fig7 not found")
  in
  let m1, t1 = run ~jobs:1 ~dir:"tmp-manifest/jobs1" in
  let m4, t4 = run ~jobs:4 ~dir:"tmp-manifest/jobs4" in
  check_manifest_shape ~manifest:m1 ~jsonl:"tmp-manifest/jobs1/fig7.jsonl";
  let section tables =
    Json.to_string
      (Manifest.run_section ~experiment:"fig7" ~quick:true
         ~params:(Slowcc.Experiments.params ~quick:true "fig7")
         ~tables)
  in
  Alcotest.(check string) "run section bytes identical"
    (section t1) (section t4);
  (match (digest_of_file m1, digest_of_file m4) with
  | Some d1, Some d4 -> Alcotest.(check string) "manifest digests equal" d1 d4
  | _ -> Alcotest.fail "digest missing from a manifest");
  Alcotest.(check string) "csv bytes identical"
    (read_file "tmp-manifest/jobs1/fig7.csv")
    (read_file "tmp-manifest/jobs4/fig7.csv");
  Alcotest.(check string) "jsonl bytes identical"
    (read_file "tmp-manifest/jobs1/fig7.jsonl")
    (read_file "tmp-manifest/jobs4/fig7.jsonl")

let suite =
  [
    Alcotest.test_case "table digest sensitivity" `Quick
      test_table_digest_sensitivity;
    Alcotest.test_case "jsonl rendering" `Quick test_jsonl_rendering;
    Alcotest.test_case "write + digest extraction" `Quick
      test_write_and_digest_extraction;
    Alcotest.test_case "timing not digested" `Quick test_timing_not_digested;
    Alcotest.test_case "backend in timing only" `Quick
      test_backend_in_timing_only;
    Alcotest.test_case "fig7 manifest jobs-invariant" `Slow
      test_fig7_jobs_invariance;
  ]

(* Experiment runners: analytic figures exactly, table plumbing, naming. *)

let test_fig11_values () =
  let t = List.hd (Option.get (Slowcc.Experiments.run_cached "fig11")) in
  Alcotest.(check int) "rows" 8 (List.length t.Slowcc.Table.rows);
  (* First row: b = 1/2, acks = log(0.1)/log(0.95) = 44.89 -> "45". *)
  match t.Slowcc.Table.rows with
  | (gamma :: acks :: _) :: _ ->
    Alcotest.(check string) "gamma" "2" gamma;
    Alcotest.(check string) "acks" "45" acks
  | _ -> Alcotest.fail "unexpected shape"

let test_fig20_values () =
  let t = List.hd (Option.get (Slowcc.Experiments.run_cached "fig20")) in
  (* Row for p = 0.5 must show the Appendix A value 2/3 = 0.6667. *)
  let row =
    List.find (fun row -> List.hd row = "0.5000") t.Slowcc.Table.rows
  in
  match row with
  | [ _; _reno; _pure; timeouts ] ->
    Alcotest.(check string) "2/3 pkt/rtt" "0.6667" timeouts
  | _ -> Alcotest.fail "unexpected row shape"

let test_table_print_no_crash () =
  let t =
    Slowcc.Table.make ~id:"t" ~title:"test" ~columns:[ "a"; "b" ]
      ~notes:[ "n" ]
      [ [ "1"; "2" ]; [ "3" ] (* ragged on purpose *) ]
  in
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Slowcc.Table.print fmt t;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "printed something" true (Buffer.length buf > 0)

let test_fnum () =
  Alcotest.(check string) "integer" "42" (Slowcc.Table.fnum 42.);
  Alcotest.(check string) "small" "0.1235" (Slowcc.Table.fnum 0.12345);
  Alcotest.(check string) "mid" "3.14" (Slowcc.Table.fnum 3.14159);
  Alcotest.(check string) "pct" "12.30%" (Slowcc.Table.fpct 0.123)

let test_to_csv () =
  let t =
    Slowcc.Table.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ]
      ~notes:[ "hello" ]
      [ [ "1"; "2,3" ]; [ "q\"uote"; "4" ] ]
  in
  let csv = Slowcc.Table.to_csv t in
  (* Notes are no longer embedded as "# ..." comment lines: the body is
     strict CSV, notes travel in the manifest / sidecar instead. *)
  Alcotest.(check string) "csv" "a,b\n1,\"2,3\"\n\"q\"\"uote\",4\n" csv

let test_save_csv () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "slowcc_csv_test" in
  let t = Slowcc.Table.make ~id:"unit" ~title:"t" ~columns:[ "a" ] [ [ "1" ] ] in
  let path = Slowcc.Table.save_csv ~dir t in
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check string) "header" "a" first

let test_unknown_experiment () =
  Alcotest.(check bool) "unknown name" true
    (Slowcc.Experiments.run_cached "nope" = None)

let test_names_resolvable_analytic () =
  (* Every name is in the dispatch table; only run the analytic ones. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) name true
        (List.mem name Slowcc.Experiments.names))
    [ "fig11"; "fig20" ];
  Alcotest.(check bool) "fig11 runs" true
    (Slowcc.Experiments.run_cached "fig11" <> None);
  Alcotest.(check bool) "fig20 runs" true
    (Slowcc.Experiments.run_cached "fig20" <> None)

(* The parameter records as every manifest digest and cache key embeds
   them: a change to these bytes moves every digest and invalidates every
   cache entry. *)
let test_params_bytes () =
  let md5 quick =
    Digest.to_hex
      (Digest.string
         (Engine.Json.to_string ~minify:true
            (Engine.Json.Obj (Slowcc.Experiments.params ~quick "all"))))
  in
  Alcotest.(check string) "quick" "c5ec501affa00f6b2654611c3bc40f84" (md5 true);
  Alcotest.(check string) "full" "bb2c726b768d6fe5d8820940192e580b" (md5 false)

let test_registry_ids () =
  let open Slowcc.Experiments in
  (* Over an empty cache every unit is uncached. *)
  let dir = "tmp-result-cache/registry" in
  Slowcc.Result_cache.clear ~dir;
  let units =
    uncached_units ~quick:true (Slowcc.Result_cache.create ~dir ())
  in
  Alcotest.(check int) "no duplicate ids" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (list string)) "units are the ids minus fig5 and fig15"
    (List.filter (fun n -> n <> "fig5" && n <> "fig15") names)
    all_units;
  Alcotest.(check (option (list string))) "all runs every unit"
    (Some all_units) (units "all");
  List.iter
    (fun (alias, unit) ->
      Alcotest.(check (option (list string))) (alias ^ " runs its unit")
        (Some [ unit ]) (units alias);
      Alcotest.(check bool) (alias ^ " params are its unit's") true
        (params ~quick:true alias = params ~quick:true unit
        && params alias = params unit))
    [ ("fig5", "fig4"); ("fig15", "fig14") ];
  Alcotest.(check (option (list string))) "unknown id" None (units "nope")

(* An alias reads its unit's cache entry: a table stored under fig14's key
   answers fig15 without simulating, and leaves neither id uncached. *)
let test_alias_hits_unit_entry () =
  let module Cache = Slowcc.Result_cache in
  let dir = "tmp-result-cache/alias" in
  Cache.clear ~dir;
  let cache = Cache.create ~dir () in
  let sentinel =
    Slowcc.Table.make ~id:"sentinel" ~title:"t" ~columns:[ "a" ] [ [ "1" ] ]
  in
  let key =
    Cache.key cache ~experiment:"fig14" ~quick:true
      ~params:(Slowcc.Experiments.params ~quick:true "fig14")
  in
  Cache.store cache ~key ~experiment:"fig14" ~quick:true [ sentinel ];
  Alcotest.(check (option (list string))) "nothing left to queue" (Some [])
    (Slowcc.Experiments.uncached_units ~quick:true cache "fig15");
  let tables = Slowcc.Experiments.run_cached ~quick:true ~cache "fig15" in
  Alcotest.(check (option (list string))) "fig15 served from fig14's entry"
    (Some [ "sentinel" ])
    (Option.map (List.map (fun t -> t.Slowcc.Table.id)) tables);
  Alcotest.(check (pair int int)) "1 hit, 0 misses" (1, 0)
    (Cache.hits cache, Cache.misses cache)

let suite =
  [
    Alcotest.test_case "fig11 analytic values" `Quick test_fig11_values;
    Alcotest.test_case "fig20 analytic values" `Quick test_fig20_values;
    Alcotest.test_case "table printing" `Quick test_table_print_no_crash;
    Alcotest.test_case "number formatting" `Quick test_fnum;
    Alcotest.test_case "to_csv" `Quick test_to_csv;
    Alcotest.test_case "save_csv" `Quick test_save_csv;
    Alcotest.test_case "unknown experiment" `Quick test_unknown_experiment;
    Alcotest.test_case "names table" `Quick test_names_resolvable_analytic;
    Alcotest.test_case "params bytes" `Quick test_params_bytes;
    Alcotest.test_case "registry ids" `Quick test_registry_ids;
    Alcotest.test_case "alias hits its unit's entry" `Quick
      test_alias_hits_unit_entry;
  ]

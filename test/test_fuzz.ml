(* The differential fuzzer: deterministic generation, reproducer JSON
   round-trips, and a small live campaign (which doubles as the
   audit-on = audit-off digest-equality check, since the baseline leg is
   fully audited and the comparison legs are not). *)

module Fuzz = Slowcc.Fuzz

let test_generate_deterministic () =
  for seed = 0 to 9 do
    let a = Fuzz.generate ~quick:true seed in
    let b = Fuzz.generate ~quick:true seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Fuzz.describe a) (Fuzz.describe b)
  done;
  let distinct =
    List.init 20 (fun s -> Fuzz.describe (Fuzz.generate ~quick:true s))
    |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check bool) "seeds explore the space" true (distinct > 10)

let test_generate_well_formed () =
  for seed = 0 to 49 do
    let sc = Fuzz.generate ~quick:true seed in
    Alcotest.(check bool) "has flows" true (sc.Fuzz.flows <> []);
    Alcotest.(check bool) "positive duration" true (sc.Fuzz.duration > 0.);
    (match sc.Fuzz.topology with
    | Fuzz.Dumbbell -> ()
    | Fuzz.Parking_lot h ->
      Alcotest.(check bool) "hops in range" true (h >= 1);
      List.iter
        (fun fs ->
          Alcotest.(check bool) "sites distinct" true
            (fs.Fuzz.src_site <> fs.Fuzz.dst_site);
          Alcotest.(check bool) "sites in range" true
            (fs.Fuzz.src_site >= 0 && fs.Fuzz.src_site <= h
            && fs.Fuzz.dst_site >= 0 && fs.Fuzz.dst_site <= h))
        sc.Fuzz.flows)
  done

let test_json_roundtrip () =
  for seed = 0 to 19 do
    let sc = Fuzz.generate ~quick:false seed in
    match Fuzz.scenario_of_json (Fuzz.scenario_to_json sc) with
    | Ok sc' ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d round-trips" seed)
        true (sc = sc')
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_json_rejects_garbage () =
  let bad j =
    match Fuzz.scenario_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "accepted malformed reproducer"
  in
  bad (Engine.Json.Obj [ ("schema", Engine.Json.String "nope/9") ]);
  bad (Engine.Json.Obj []);
  let doc = Fuzz.scenario_to_json (Fuzz.generate ~quick:true 0) in
  (match doc with
  | Engine.Json.Obj fields ->
    bad (Engine.Json.Obj (List.remove_assoc "flows" fields))
  | _ -> Alcotest.fail "scenario_to_json did not produce an object")

(* A reproducer naming a protocol value the constructors reject (tcp:1
   has gamma below 1.5) loads as an error instead of raising. *)
let test_json_rejects_out_of_range_proto () =
  let sc = Fuzz.generate ~quick:true 0 in
  let fs =
    { (List.hd sc.Fuzz.flows) with Fuzz.proto = Slowcc.Protocol.Tcp 1. }
  in
  let doc = Fuzz.scenario_to_json { sc with Fuzz.flows = [ fs ] } in
  match Fuzz.scenario_of_json doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted proto tcp:1"

let test_repro_file_roundtrip () =
  let dir = "tmp-fuzz/repro" in
  let sc = Fuzz.generate ~quick:true 3 in
  let path = Fuzz.save_repro ~dir ~failure:"synthetic failure" sc in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  (match Fuzz.load_repro path with
  | Ok sc' -> Alcotest.(check bool) "file round-trips" true (sc = sc')
  | Error msg -> Alcotest.failf "load_repro: %s" msg);
  Sys.remove path

let test_shrink_keeps_passing_scenario () =
  (* shrink only accepts candidates that still fail; on a healthy
     scenario it must return the input unchanged. *)
  let sc = Fuzz.generate ~quick:true 0 in
  let sc', msg = Fuzz.shrink sc "original" in
  Alcotest.(check bool) "unchanged" true (sc = sc');
  Alcotest.(check string) "message kept" "original" msg

let test_reverse_flow_legs_agree () =
  (* A fixed dumbbell (from seed 7 of the quick campaign) with a reverse TFRC
     flow still ramping up between two forward window flows: the fresh
     allocation leg must match the audited baseline. *)
  let mk proto rev = { Fuzz.proto; rev; src_site = 0; dst_site = 0 } in
  let sc =
    {
      Fuzz.seed = 7;
      topology = Fuzz.Dumbbell;
      queue = Netsim.Dumbbell.Red;
      bandwidth = 3e6;
      rtt = 0.02;
      duration = 3.;
      flows =
        [
          mk (Slowcc.Protocol.tcp ~gamma:2.) false;
          mk (Slowcc.Protocol.tfrc ~k:2 ()) true;
          mk (Slowcc.Protocol.iiad ~gamma:4.) false;
        ];
    }
  in
  match Fuzz.check sc with
  | None -> ()
  | Some msg -> Alcotest.failf "legs diverge: %s" msg

(* A miniature live campaign.  The baseline leg runs with lifetime and
   invariant auditing on while the allocation leg runs with it off, so
   zero divergences here also proves auditing does not perturb
   results. *)
let test_small_campaign_clean () =
  Engine.Audit.reset_violations ();
  let campaign ~quick ~seeds =
    let report = Fuzz.run_seeds ~quick ~seeds () in
    Alcotest.(check int) "seeds run" seeds report.Fuzz.seeds_run;
    (match report.Fuzz.failures with
    | [] -> ()
    | f :: _ ->
      Alcotest.failf "seed %d (quick=%b) failed: %s"
        f.Fuzz.scenario.Fuzz.seed quick f.Fuzz.first_failure);
    match report.Fuzz.soa_failures with
    | [] -> ()
    | (seed, msg) :: _ ->
      Alcotest.failf "seed %d (quick=%b) SoA leg failed: %s" seed quick msg
  in
  campaign ~quick:true ~seeds:4;
  (* Full-scale scenarios: longer runs with more flows. *)
  campaign ~quick:false ~seeds:50;
  Alcotest.(check int) "no violations recorded" 0
    (Engine.Audit.violation_count ())

let suite =
  [
    Alcotest.test_case "generation is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "generation is well-formed" `Quick
      test_generate_well_formed;
    Alcotest.test_case "scenario JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "malformed reproducers rejected" `Quick
      test_json_rejects_garbage;
    Alcotest.test_case "out-of-range proto rejected" `Quick
      test_json_rejects_out_of_range_proto;
    Alcotest.test_case "reproducer file round-trip" `Quick
      test_repro_file_roundtrip;
    Alcotest.test_case "shrink keeps passing scenario" `Quick
      test_shrink_keeps_passing_scenario;
    Alcotest.test_case "reverse-flow scenario legs agree" `Quick
      test_reverse_flow_legs_agree;
    Alcotest.test_case "small campaign clean" `Quick test_small_campaign_clean;
  ]

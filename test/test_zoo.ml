(* The modern-CC protocol zoo: registration of the new families, spawn
   plumbing, and a directed differential-fuzz campaign that pushes BBR
   and Vegas flows through both topologies. *)

module Fuzz = Slowcc.Fuzz
module Protocol = Slowcc.Protocol
module Experiments = Slowcc.Experiments

let test_registered () =
  Alcotest.(check bool) "zoo-gauntlet in names" true
    (List.mem "zoo-gauntlet" Experiments.names);
  Alcotest.(check bool) "zoo-gauntlet is a unit" true
    (List.mem "zoo-gauntlet" Experiments.all_units);
  Alcotest.(check bool) "manifest params recorded" true
    (Experiments.params ~quick:true "zoo-gauntlet" <> [])

let test_protocol_names () =
  Alcotest.(check string) "bbr" "BBR" (Protocol.name Protocol.bbr);
  Alcotest.(check string) "vegas defaults" "VEGAS(2,4)"
    (Protocol.name (Protocol.vegas ()));
  Alcotest.(check string) "vegas custom" "VEGAS(1,3)"
    (Protocol.name (Protocol.vegas ~alpha:1. ~beta:3. ()))

let test_vegas_validation () =
  Alcotest.check_raises "beta < alpha"
    (Invalid_argument "Protocol.vegas: need finite 0 <= alpha <= beta") (fun () ->
      ignore (Protocol.vegas ~alpha:5. ~beta:2. ()))

let db_fixture () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng
      (Netsim.Dumbbell.default_config ~bandwidth:8e6)
  in
  (sim, db)

let test_spawn_both_families () =
  let sim, db = db_fixture () in
  let b = Protocol.spawn Protocol.bbr db in
  let v = Protocol.spawn (Protocol.vegas ()) db in
  Alcotest.(check string) "bbr flow label" "BBR" b.Cc.Flow.protocol;
  Alcotest.(check string) "vegas flow label" "VEGAS" v.Cc.Flow.protocol;
  b.Cc.Flow.start ();
  v.Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check bool) "bbr delivers" true
    (b.Cc.Flow.bytes_delivered () > 100_000.);
  Alcotest.(check bool) "vegas delivers" true
    (v.Cc.Flow.bytes_delivered () > 100_000.)

(* Directed scenarios: every seed carries one BBR and one Vegas flow.
   Even seeds run both forward on the one-hop dumbbell; odd seeds add a
   forward TCP flow and send Vegas the other way across a chain of one
   to three hops.  The queue discipline cycles.  Each runs the fuzzer's
   full differential check (audited baseline against audit=off), so
   byte-identical digests and zero audit violations across 100 seeds. *)
let zoo_scenario seed =
  let hops = if seed mod 2 = 0 then 1 else 1 + (seed mod 3) in
  let queue =
    match seed mod 3 with
    | 0 -> Netsim.Dumbbell.Red
    | 1 -> Netsim.Dumbbell.Droptail
    | _ -> Netsim.Dumbbell.Red_ecn
  in
  let flow proto src_site dst_site = { Fuzz.proto; src_site; dst_site } in
  let flows =
    [
      flow Protocol.bbr 0 hops;
      (if seed mod 2 = 0 then flow (Protocol.vegas ()) 0 hops
       else flow (Protocol.vegas ()) hops 0);
    ]
    @ (if seed mod 2 = 1 then [ flow (Protocol.tcp ~gamma:2.) 0 hops ]
       else [])
  in
  {
    Fuzz.seed;
    hops;
    queue;
    bandwidth = 2e6 +. (float_of_int (seed mod 4) *. 2e6);
    rtt = 0.04 +. (0.02 *. float_of_int (seed mod 3));
    duration = 2.0;
    flows;
  }

let test_directed_fuzz_campaign () =
  Engine.Audit.reset_violations ();
  for seed = 0 to 99 do
    let sc = zoo_scenario seed in
    match Fuzz.check sc with
    | None -> ()
    | Some failure ->
      Alcotest.failf "seed %d (%s): %s" seed (Fuzz.describe sc) failure
  done;
  Alcotest.(check int) "no audit violations" 0
    (Engine.Audit.violation_count ())

let suite =
  [
    Alcotest.test_case "experiment registered" `Quick test_registered;
    Alcotest.test_case "protocol names" `Quick test_protocol_names;
    Alcotest.test_case "vegas parameter validation" `Quick
      test_vegas_validation;
    Alcotest.test_case "spawn both families" `Quick test_spawn_both_families;
    Alcotest.test_case "directed fuzz campaign (100 seeds)" `Slow
      test_directed_fuzz_campaign;
  ]

(* Protocol family constructors and spawning. *)

let test_names () =
  Alcotest.(check string) "tcp" "TCP(1/2)"
    (Slowcc.Protocol.name (Slowcc.Protocol.tcp ~gamma:2.));
  Alcotest.(check string) "rap" "RAP(1/8)"
    (Slowcc.Protocol.name (Slowcc.Protocol.rap ~gamma:8.));
  Alcotest.(check string) "sqrt" "SQRT(1/2)"
    (Slowcc.Protocol.name (Slowcc.Protocol.sqrt_ ~gamma:2.));
  Alcotest.(check string) "tfrc" "TFRC(6)"
    (Slowcc.Protocol.name (Slowcc.Protocol.tfrc ~k:6 ()));
  Alcotest.(check string) "tfrc sc" "TFRC(256)+SC"
    (Slowcc.Protocol.name (Slowcc.Protocol.tfrc ~conservative:true ~k:256 ()))

let test_gamma_validation () =
  Alcotest.check_raises "gamma too small"
    (Invalid_argument
       "Protocol: gamma >= 1.5 required (gamma = 2 is standard TCP)")
    (fun () -> ignore (Slowcc.Protocol.tcp ~gamma:1.))

let test_k_validation () =
  Alcotest.check_raises "bad k" (Invalid_argument "Protocol.tfrc: k >= 1")
    (fun () -> ignore (Slowcc.Protocol.tfrc ~k:0 ()))

let test_string_round_trip () =
  List.iter
    (fun p ->
      let s = Slowcc.Protocol.to_string p in
      match Slowcc.Protocol.of_string s with
      | Ok p' -> Alcotest.(check bool) (s ^ " round-trips") true (p = p')
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    Slowcc.Protocol.
      [
        tcp ~gamma:2.; tcp_sack ~gamma:8.; rap ~gamma:2.; sqrt_ ~gamma:2.;
        iiad ~gamma:4.; tfrc ~k:6 (); tfrc ~conservative:true ~k:256 ();
        tear ~rounds:8; bbr; vegas ~alpha:1. ~beta:3. ();
      ]

(* Values the constructors reject are parse errors, not exceptions. *)
let test_string_rejects () =
  List.iter
    (fun s ->
      match Slowcc.Protocol.of_string s with
      | Error _ -> ()
      | Ok p -> Alcotest.failf "%S parsed as %s" s (Slowcc.Protocol.name p))
    [ "tcp:1"; "tfrc:0"; "tear:0"; "vegas:5-2"; "tcp"; "nosuch:2"; "vegas:1" ]

let env () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth:4e6)
  in
  (sim, db)

let test_spawn_all_kinds () =
  let sim, db = env () in
  let flows =
    List.map
      (fun p -> Slowcc.Protocol.spawn p db)
      [
        Slowcc.Protocol.tcp ~gamma:2.;
        Slowcc.Protocol.rap ~gamma:2.;
        Slowcc.Protocol.sqrt_ ~gamma:2.;
        Slowcc.Protocol.iiad ~gamma:2.;
        Slowcc.Protocol.tfrc ~k:6 ();
      ]
  in
  List.iter (fun (f : Cc.Flow.t) -> f.Cc.Flow.start ()) flows;
  Engine.Sim.run ~until:10. sim;
  List.iter
    (fun (f : Cc.Flow.t) ->
      Alcotest.(check bool)
        (f.Cc.Flow.protocol ^ " delivered data")
        true
        (f.Cc.Flow.bytes_delivered () > 10000.))
    flows

let test_spawn_reverse () =
  let sim, db = env () in
  let fwd = Slowcc.Protocol.spawn (Slowcc.Protocol.tcp ~gamma:2.) db in
  let rev = Slowcc.Protocol.spawn ~reverse:true (Slowcc.Protocol.tcp ~gamma:2.) db in
  fwd.Cc.Flow.start ();
  rev.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "both directions flow" true
    (fwd.Cc.Flow.bytes_delivered () > 10000.
    && rev.Cc.Flow.bytes_delivered () > 10000.)

let test_short_transfer () =
  let sim, db = env () in
  let f =
    Slowcc.Protocol.spawn ~total_pkts:10 (Slowcc.Protocol.tcp ~gamma:2.) db
  in
  f.Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check (float 0.)) "exactly 10 packets" 10000.
    (f.Cc.Flow.bytes_delivered ())

let test_rap_rejects_short () =
  let _, db = env () in
  Alcotest.check_raises "rap short"
    (Invalid_argument "Protocol.spawn: RAP flows are long-lived only")
    (fun () ->
      ignore
        (Slowcc.Protocol.spawn ~total_pkts:5 (Slowcc.Protocol.rap ~gamma:2.) db))

let suite =
  [
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "gamma validation" `Quick test_gamma_validation;
    Alcotest.test_case "k validation" `Quick test_k_validation;
    Alcotest.test_case "string round-trip" `Quick test_string_round_trip;
    Alcotest.test_case "string rejects bad values" `Quick test_string_rejects;
    Alcotest.test_case "spawn all kinds" `Slow test_spawn_all_kinds;
    Alcotest.test_case "spawn reverse" `Quick test_spawn_reverse;
    Alcotest.test_case "short transfer" `Quick test_short_transfer;
    Alcotest.test_case "rap rejects short transfers" `Quick
      test_rap_rejects_short;
  ]

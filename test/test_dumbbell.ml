(* Dumbbell topology wiring: RTT budget, routing both ways, dimensioning. *)

let fixture ?(bandwidth = 10e6) ?(queue = Netsim.Dumbbell.Red) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let config =
    { (Netsim.Dumbbell.default_config ~bandwidth) with Netsim.Dumbbell.queue }
  in
  (sim, Netsim.Dumbbell.create ~sim ~rng config)

let test_bdp () =
  let c = Netsim.Dumbbell.default_config ~bandwidth:10e6 in
  (* 10 Mbps x 50 ms / 8000 bits = 62.5 packets. *)
  Alcotest.(check (float 1e-9)) "bdp" 62.5 (Netsim.Dumbbell.bdp_packets c)

let measure_rtt sim db =
  (* Ping: send a 0-byte-ish packet right and echo it back. *)
  let left, right = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let t_sent = ref 0. and t_back = ref 0. in
  Netsim.Node.attach right ~flow (fun pkt ->
      let echo =
        Netsim.Packet.make ~size:pkt.Netsim.Packet.size ~seq:0
          ~payload:Netsim.Packet.Plain ~flow ~src:(Netsim.Node.id right)
          ~dst:(Netsim.Node.id left)
      in
      Netsim.Node.inject right echo);
  Netsim.Node.attach left ~flow (fun _ -> t_back := Engine.Sim.now sim);
  Engine.Sim.at sim 0. (fun () ->
      t_sent := 0.;
      let probe =
        Netsim.Packet.make ~size:40 ~seq:0 ~payload:Netsim.Packet.Plain ~flow
          ~src:(Netsim.Node.id left) ~dst:(Netsim.Node.id right)
      in
      Netsim.Node.inject left probe);
  Engine.Sim.run sim;
  !t_back -. !t_sent

let test_rtt_budget () =
  let sim, db = fixture () in
  let rtt = measure_rtt sim db in
  (* Propagation-only RTT should be 50 ms up to serialization epsilon. *)
  Alcotest.(check bool) "rtt near 50ms" true
    (rtt > 0.049 && rtt < 0.053)

let test_forward_and_reverse_paths () =
  let sim, db = fixture () in
  let left, right = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let at_right = ref 0 and at_left = ref 0 in
  Netsim.Node.attach right ~flow (fun _ -> incr at_right);
  Netsim.Node.attach left ~flow (fun _ -> incr at_left);
  Engine.Sim.at sim 0. (fun () ->
      Netsim.Node.inject left
        (Netsim.Packet.make ~size:1000 ~seq:0 ~payload:Netsim.Packet.Plain ~flow
           ~src:(Netsim.Node.id left) ~dst:(Netsim.Node.id right));
      Netsim.Node.inject right
        (Netsim.Packet.make ~size:1000 ~seq:0 ~payload:Netsim.Packet.Plain ~flow
           ~src:(Netsim.Node.id right) ~dst:(Netsim.Node.id left)));
  Engine.Sim.run sim;
  Alcotest.(check int) "right got it" 1 !at_right;
  Alcotest.(check int) "left got it" 1 !at_left

let test_host_pairs_isolated () =
  let sim, db = fixture () in
  let l1, r1 = Netsim.Dumbbell.add_host_pair db in
  let _, r2 = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  let at_r1 = ref 0 and at_r2 = ref 0 in
  Netsim.Node.attach r1 ~flow (fun _ -> incr at_r1);
  Netsim.Node.attach r2 ~flow (fun _ -> incr at_r2);
  Engine.Sim.at sim 0. (fun () ->
      Netsim.Node.inject l1
        (Netsim.Packet.make ~size:1000 ~seq:0 ~payload:Netsim.Packet.Plain ~flow
           ~src:(Netsim.Node.id l1) ~dst:(Netsim.Node.id r1)));
  Engine.Sim.run sim;
  Alcotest.(check int) "addressed host" 1 !at_r1;
  Alcotest.(check int) "other host untouched" 0 !at_r2

let test_fresh_flow_unique () =
  let _, db = fixture () in
  let a = Netsim.Dumbbell.fresh_flow db in
  let b = Netsim.Dumbbell.fresh_flow db in
  Alcotest.(check bool) "unique" true (a <> b)

let test_droptail_variant () =
  let _, db = fixture ~queue:Netsim.Dumbbell.Droptail () in
  let q = Netsim.Link.queue (Netsim.Dumbbell.bottleneck db) in
  Alcotest.(check string) "droptail queue" "droptail" q.Netsim.Queue_intf.name

let test_red_variant () =
  let _, db = fixture () in
  let q = Netsim.Link.queue (Netsim.Dumbbell.bottleneck db) in
  Alcotest.(check string) "red queue" "red" q.Netsim.Queue_intf.name

let test_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Dumbbell.create: bandwidth") (fun () ->
      ignore
        (Netsim.Dumbbell.create ~sim ~rng
           (Netsim.Dumbbell.default_config ~bandwidth:(-1.))))

let suite =
  [
    Alcotest.test_case "bdp packets" `Quick test_bdp;
    Alcotest.test_case "rtt budget" `Quick test_rtt_budget;
    Alcotest.test_case "both directions routed" `Quick
      test_forward_and_reverse_paths;
    Alcotest.test_case "host pairs isolated" `Quick test_host_pairs_isolated;
    Alcotest.test_case "fresh flows unique" `Quick test_fresh_flow_unique;
    Alcotest.test_case "droptail variant" `Quick test_droptail_variant;
    Alcotest.test_case "red variant" `Quick test_red_variant;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

(* Dumbbell topology wiring: RTT budget, routing both ways, dimensioning,
   and the multi-hop chain: paths across it, cross traffic per hop. *)

let fixture ?(bandwidth = 10e6) ?(queue = Netsim.Dumbbell.Red) ?(hops = 1) ()
    =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth) with
      Netsim.Dumbbell.queue;
      hops;
    }
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
  List.iter
    (fun hops ->
      let sim, db = fixture ~hops () in
      let rtt = measure_rtt sim db in
      (* Propagation-only RTT between the chain's two ends should be 50 ms
         up to serialization epsilon, whatever the hop count. *)
      Alcotest.(check bool)
        (Printf.sprintf "%d hop(s): rtt %.4f near 50ms" hops rtt)
        true
        (rtt > 0.049 && rtt < 0.053))
    [ 1; 3 ]

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

let test_chain_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "bad hops" (Invalid_argument "Dumbbell.create: hops")
    (fun () ->
      ignore
        (Netsim.Dumbbell.create ~sim ~rng
           {
             (Netsim.Dumbbell.default_config ~bandwidth:1e6) with
             Netsim.Dumbbell.hops = 0;
           }));
  let _, db = fixture ~hops:3 () in
  Alcotest.check_raises "bad site"
    (Invalid_argument "Dumbbell.add_host: site out of range") (fun () ->
      ignore (Netsim.Dumbbell.add_host db ~site:9))

(* A three-hop chain at 6 Mbps, with TCP(1/2) flows between any two of
   its four routers. *)
let chain () = fixture ~bandwidth:6e6 ~hops:3 ()

let tcp_flow sim db ~from_site ~to_site =
  let src = Netsim.Dumbbell.add_host db ~site:from_site in
  let dst = Netsim.Dumbbell.add_host db ~site:to_site in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg) 0

let test_chain_end_to_end_path () =
  let sim, db = chain () in
  let flow = tcp_flow sim db ~from_site:0 ~to_site:3 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:20. sim;
  let mbps = flow.Cc.Flow.bytes_delivered () *. 8. /. 20. /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "long path fills chain (%.2f Mbps)" mbps)
    true (mbps > 3.5);
  (* Data crossed every forward hop. *)
  for hop = 0 to 2 do
    Alcotest.(check bool) "hop carried data" true
      (Netsim.Link.departures (Netsim.Dumbbell.bottleneck ~hop db) > 1000)
  done

let test_chain_reverse_path () =
  let sim, db = chain () in
  let flow = tcp_flow sim db ~from_site:3 ~to_site:0 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "reverse direction works" true
    (flow.Cc.Flow.bytes_delivered () > 100000.)

let test_chain_local_hop () =
  let sim, db = chain () in
  let flow = tcp_flow sim db ~from_site:1 ~to_site:2 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "single-hop flow works" true
    (flow.Cc.Flow.bytes_delivered () > 100000.);
  (* Only the middle hop carried the data. *)
  Alcotest.(check bool) "hop 0 idle" true
    (Netsim.Link.departures (Netsim.Dumbbell.bottleneck db) < 10)

let test_chain_long_flow_disadvantaged () =
  (* The classic multi-hop result: a flow crossing all hops gets less
     than single-hop cross traffic on the shared links. *)
  let sim, db = chain () in
  let long = tcp_flow sim db ~from_site:0 ~to_site:3 in
  let crossers =
    List.init 3 (fun i -> tcp_flow sim db ~from_site:i ~to_site:(i + 1))
  in
  long.Cc.Flow.start ();
  List.iter (fun (f : Cc.Flow.t) -> f.Cc.Flow.start ()) crossers;
  Engine.Sim.run ~until:60. sim;
  let thr (f : Cc.Flow.t) = f.Cc.Flow.bytes_delivered () in
  let cross_avg =
    List.fold_left (fun acc f -> acc +. thr f) 0. crossers /. 3.
  in
  Alcotest.(check bool)
    (Printf.sprintf "long %.0f < crossers %.0f" (thr long) cross_avg)
    true
    (thr long < cross_avg);
  Alcotest.(check bool) "long flow not starved" true
    (thr long > 0.05 *. cross_avg)

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
    Alcotest.test_case "chain end-to-end path" `Quick
      test_chain_end_to_end_path;
    Alcotest.test_case "chain reverse path" `Quick test_chain_reverse_path;
    Alcotest.test_case "chain local hop" `Quick test_chain_local_hop;
    Alcotest.test_case "chain long flow disadvantaged" `Slow
      test_chain_long_flow_disadvantaged;
    Alcotest.test_case "chain validation" `Quick test_chain_validation;
  ]

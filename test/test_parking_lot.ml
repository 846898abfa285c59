(* Multi-bottleneck parking-lot topology (extension). *)

let fixture ?(hops = 3) ?(bandwidth = 6e6) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:17 in
  let pl =
    Netsim.Parking_lot.create ~sim ~rng
      (Netsim.Parking_lot.default_config ~hops ~bandwidth)
  in
  (sim, pl)

let tcp_flow sim pl ~from_site ~to_site =
  let src = Netsim.Parking_lot.add_host pl ~site:from_site in
  let dst = Netsim.Parking_lot.add_host pl ~site:to_site in
  let flow_id = Netsim.Parking_lot.fresh_flow pl in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg) 0

let test_end_to_end_path () =
  let sim, pl = fixture () in
  let flow = tcp_flow sim pl ~from_site:0 ~to_site:3 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:20. sim;
  let mbps = flow.Cc.Flow.bytes_delivered () *. 8. /. 20. /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "long path fills chain (%.2f Mbps)" mbps)
    true (mbps > 3.5);
  (* Data crossed every forward bottleneck. *)
  for i = 0 to 2 do
    Alcotest.(check bool) "hop carried data" true
      (Netsim.Link.departures (Netsim.Parking_lot.bottleneck pl i) > 1000)
  done

let test_reverse_path () =
  let sim, pl = fixture () in
  let flow = tcp_flow sim pl ~from_site:3 ~to_site:0 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "reverse direction works" true
    (flow.Cc.Flow.bytes_delivered () > 100000.)

let test_local_hop () =
  let sim, pl = fixture () in
  let flow = tcp_flow sim pl ~from_site:1 ~to_site:2 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "single-hop flow works" true
    (flow.Cc.Flow.bytes_delivered () > 100000.);
  (* Only the middle bottleneck carried the data. *)
  Alcotest.(check bool) "hop 0 idle" true
    (Netsim.Link.departures (Netsim.Parking_lot.bottleneck pl 0) < 10)

let test_long_flow_disadvantaged () =
  (* The classic parking-lot result: a flow crossing all hops gets less
     than single-hop cross traffic on the shared links. *)
  let sim, pl = fixture () in
  let long = tcp_flow sim pl ~from_site:0 ~to_site:3 in
  let crossers =
    List.init 3 (fun i -> tcp_flow sim pl ~from_site:i ~to_site:(i + 1))
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

let test_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "bad hops"
    (Invalid_argument "Parking_lot.create: hops >= 1") (fun () ->
      ignore
        (Netsim.Parking_lot.create ~sim ~rng
           (Netsim.Parking_lot.default_config ~hops:0 ~bandwidth:1e6)));
  let _, pl = fixture () in
  Alcotest.check_raises "bad site"
    (Invalid_argument "Parking_lot.add_host: site out of range") (fun () ->
      ignore (Netsim.Parking_lot.add_host pl ~site:9))

let suite =
  [
    Alcotest.test_case "end-to-end path" `Quick test_end_to_end_path;
    Alcotest.test_case "reverse path" `Quick test_reverse_path;
    Alcotest.test_case "local hop" `Quick test_local_hop;
    Alcotest.test_case "long flow disadvantaged" `Slow
      test_long_flow_disadvantaged;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

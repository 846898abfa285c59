(* TEAR: receiver-emulated TCP window, rate-driven sender. *)

let fixture ?(seed = 13) ?(bandwidth = 4e6) ?(rounds = 8) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth)
  in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let tear =
    Cc.Tear.create ~sim ~src ~dst ~flow:flow_id
      { Cc.Tear.default_config with Cc.Tear.smoothing_rounds = rounds }
  in
  (sim, db, tear)

let test_ramps_up () =
  let sim, _, tear = fixture ~bandwidth:20e6 () in
  (Cc.Tear.flow tear).Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "window grew" true (Cc.Tear.emulated_cwnd tear > 5.);
  Alcotest.(check bool) "rate grew" true (Cc.Tear.rate_pps tear > 20.)

let test_fills_link () =
  let sim, _, tear = fixture () in
  let flow = Cc.Tear.flow tear in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:40. sim;
  let mbps = flow.Cc.Flow.bytes_delivered () *. 8. /. 40. /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.2f of 4 Mbps" mbps)
    true (mbps > 2.0)

let test_reacts_to_congestion () =
  (* The emulated window must stay bounded on a congested link (losses
     halve it), not grow without limit. *)
  let sim, _, tear = fixture ~bandwidth:2e6 () in
  (Cc.Tear.flow tear).Cc.Flow.start ();
  Engine.Sim.run ~until:60. sim;
  (* BDP at 2 Mbps is ~12.5 packets; queue adds 2.5x. *)
  Alcotest.(check bool) "window bounded" true (Cc.Tear.emulated_cwnd tear < 120.)

let test_smoother_than_tcp () =
  (* Under identical periodic loss, TEAR's sending rate must be smoother
     than TCP's (that is its whole point). *)
  let run protocol =
    let r =
      Slowcc.Scenarios.loss_pattern ~seed:5 ~duration:50. ~protocol
        ~pattern:(Slowcc.Scenarios.Counts [ 100 ])
        ~bandwidth:10e6 ()
    in
    r.Slowcc.Scenarios.smoothness
  in
  let s_tear = run (Slowcc.Protocol.tear ~rounds:8) in
  let s_tcp = run (Slowcc.Protocol.tcp ~gamma:2.) in
  Alcotest.(check bool)
    (Printf.sprintf "tear %.2f vs tcp %.2f" s_tear s_tcp)
    true (s_tear < s_tcp)

let test_roughly_tcp_compatible () =
  (* TEAR vs TCP on one bottleneck: long-term shares within a factor ~2.5
     (TEAR is an emulation, not an exact clone). *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth:8e6)
  in
  let tear = Slowcc.Protocol.spawn (Slowcc.Protocol.tear ~rounds:8) db in
  let tcp = Slowcc.Protocol.spawn (Slowcc.Protocol.tcp ~gamma:2.) db in
  tear.Cc.Flow.start ();
  tcp.Cc.Flow.start ();
  Engine.Sim.run ~until:120. sim;
  let r =
    tear.Cc.Flow.bytes_delivered () /. Float.max 1. (tcp.Cc.Flow.bytes_delivered ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "share ratio %.2f" r)
    true
    (r > 0.4 && r < 2.5)

let test_stop () =
  let sim, _, tear = fixture () in
  let flow = Cc.Tear.flow tear in
  flow.Cc.Flow.start ();
  Engine.Sim.at sim 5. flow.Cc.Flow.stop;
  Engine.Sim.run ~until:6. sim;
  let sent = flow.Cc.Flow.pkts_sent () in
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check int) "silent after stop" sent (flow.Cc.Flow.pkts_sent ())

(* A stopped flow goes quiet in both directions: its receiver's timeout
   emulation must not keep collapsing the window and reporting rates. *)
let test_stop_silences_feedback () =
  let sim, db, tear = fixture () in
  let flow = Cc.Tear.flow tear in
  flow.Cc.Flow.start ();
  Engine.Sim.at sim 5. flow.Cc.Flow.stop;
  (* One second drains what was in flight at the stop. *)
  Engine.Sim.run ~until:6. sim;
  let reverse = Netsim.Dumbbell.bottleneck_rev db in
  let fb = Netsim.Link.departures reverse in
  Engine.Sim.run ~until:20. sim;
  Alcotest.(check int) "no feedback after stop" fb
    (Netsim.Link.departures reverse)

let test_validation () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create ~id:0 in
  Alcotest.check_raises "bad rounds"
    (Invalid_argument "Tear.create: smoothing_rounds") (fun () ->
      ignore
        (Cc.Tear.create ~sim ~src:node ~dst:node ~flow:0
           { Cc.Tear.default_config with Cc.Tear.smoothing_rounds = 0 }))

let suite =
  [
    Alcotest.test_case "ramps up" `Quick test_ramps_up;
    Alcotest.test_case "fills the link" `Slow test_fills_link;
    Alcotest.test_case "reacts to congestion" `Slow test_reacts_to_congestion;
    Alcotest.test_case "smoother than tcp" `Slow test_smoother_than_tcp;
    Alcotest.test_case "roughly tcp-compatible" `Slow test_roughly_tcp_compatible;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "stop silences feedback" `Quick
      test_stop_silences_feedback;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

(* Additional Window_cc edge cases: caps, guards, probe RTT behavior. *)

let db_fixture ?(seed = 5) ?(bandwidth = 50e6) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth)
  in
  (sim, db)

let spawn ?(cfg_of = Fun.id) sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    cfg_of
      (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5))
  in
  Cc.Window_cc.create ~sim ~src ~dst ~flow:flow_id cfg

let test_max_window_cap () =
  let sim, db = db_fixture () in
  let tcp =
    spawn ~cfg_of:(fun c -> { c with Cc.Window_cc.max_window = 20. }) sim db
  in
  (Cc.Window_cc.flow tcp).Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "cwnd capped" true (Cc.Window_cc.cwnd tcp <= 20.)

let test_max_window_bounds_rate () =
  (* Window 10 on a 50 ms RTT = at most ~200 pkt/s regardless of link. *)
  let sim, db = db_fixture () in
  let tcp =
    spawn ~cfg_of:(fun c -> { c with Cc.Window_cc.max_window = 10. }) sim db
  in
  let flow = Cc.Window_cc.flow tcp in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:20. sim;
  let pps = flow.Cc.Flow.bytes_delivered () /. 1000. /. 20. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f pps <= window/rtt" pps)
    true (pps < 215.)

let test_initial_window_respected () =
  let sim, db = db_fixture () in
  let tcp =
    spawn ~cfg_of:(fun c -> { c with Cc.Window_cc.initial_window = 4. }) sim db
  in
  let flow = Cc.Window_cc.flow tcp in
  flow.Cc.Flow.start ();
  (* Before any ack can return (RTT 50 ms), exactly IW packets go out. *)
  Engine.Sim.run ~until:0.04 sim;
  Alcotest.(check int) "initial burst" 4 (flow.Cc.Flow.pkts_sent ())

let test_initial_window_validated () =
  let sim, db = db_fixture () in
  Alcotest.check_raises "iw < 1" (Invalid_argument "Window_cc: initial_window")
    (fun () ->
      ignore
        (spawn
           ~cfg_of:(fun c -> { c with Cc.Window_cc.initial_window = 0.5 })
           sim db))

let test_finished_flow_ignores_acks () =
  let sim, db = db_fixture () in
  let tcp =
    spawn ~cfg_of:(fun c -> { c with Cc.Window_cc.total_pkts = Some 5 }) sim db
  in
  let flow = Cc.Window_cc.flow tcp in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "finished" true (Cc.Window_cc.finished tcp);
  let sent = flow.Cc.Flow.pkts_sent () in
  Engine.Sim.run ~until:20. sim;
  Alcotest.(check int) "stays quiet" sent (flow.Cc.Flow.pkts_sent ())

let test_srtt_stable_under_heavy_loss () =
  (* Regression for the RTT-probe fix: srtt must stay near the propagation
     RTT even at 20% random loss (naive cumulative-ack sampling inflated
     it by 10x or more). *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:9 in
  let make_queue () =
    Netsim.Loss_pattern.bernoulli ~rng:(Engine.Rng.split rng) ~p:0.2
      (Netsim.Droptail.make ~capacity:1000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:10e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn sim db in
  (Cc.Window_cc.flow tcp).Cc.Flow.start ();
  Engine.Sim.run ~until:60. sim;
  let srtt = Cc.Window_cc.srtt tcp in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.3f under 3x the base RTT" srtt)
    true
    (srtt > 0.04 && srtt < 0.15)

let test_stale_acks_are_not_dupacks () =
  (* Regression: an ack with cum_seq strictly below snd_una (stale
     duplicate from before a timeout's go-back-N rewind, or reordered in
     the network) used to count towards the three-dupack threshold and
     trigger a spurious fast retransmit with a window halving.  Only an
     ack for exactly snd_una is a duplicate. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:5 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng
      (Netsim.Dumbbell.default_config ~bandwidth:50e6)
  in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  let tcp = Cc.Window_cc.create ~sim ~src ~dst ~flow:flow_id cfg in
  (Cc.Window_cc.flow tcp).Cc.Flow.start ();
  (* A clean 50 Mbps path: after 0.3 s snd_una is far beyond seq 1. *)
  Engine.Sim.run ~until:0.3 sim;
  let cwnd_before = Cc.Window_cc.cwnd tcp in
  let fast_rtx_before = Cc.Window_cc.fast_retransmits tcp in
  for _ = 1 to 3 do
    Netsim.Node.receive src
      (Netsim.Packet.make ~size:40 ~flow:flow_id ~src:(Netsim.Node.id dst)
         ~dst:(Netsim.Node.id src) ~sent_at:(Engine.Sim.now sim)
         ~payload:(Netsim.Packet.Ack { cum_seq = 1; sack = [] })
         ())
  done;
  Alcotest.(check int) "no spurious fast retransmit" fast_rtx_before
    (Cc.Window_cc.fast_retransmits tcp);
  Alcotest.(check (float 1e-9)) "cwnd untouched by stale acks" cwnd_before
    (Cc.Window_cc.cwnd tcp)

let test_two_flows_share_fairly () =
  let sim, db = db_fixture ~bandwidth:8e6 () in
  let a = spawn sim db and b = spawn sim db in
  (Cc.Window_cc.flow a).Cc.Flow.start ();
  Engine.Sim.at sim 0.5 (Cc.Window_cc.flow b).Cc.Flow.start;
  Engine.Sim.run ~until:60. sim;
  let da = (Cc.Window_cc.flow a).Cc.Flow.bytes_delivered () in
  let db_ = (Cc.Window_cc.flow b).Cc.Flow.bytes_delivered () in
  let ratio = da /. Float.max 1. db_ in
  Alcotest.(check bool)
    (Printf.sprintf "share ratio %.2f" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_rto_min_floor_and_backoff_order () =
  (* Regression pin for the RTO clamp: a low-RTT path (srtt + 4*rttvar
     far below min_rto) must floor at min_rto, and exponential backoff
     multiplies the *floored* value — clamping after backoff would leave
     a backed-off timer stuck at 200 ms. *)
  let sim, db = db_fixture () in
  let tcp = spawn sim db in
  let st = Cc.Window_cc.export_state tcp in
  Cc.Window_cc.import_state tcp
    {
      st with
      Cc.Window_cc.s_srtt = 0.001;
      s_rttvar = 0.;
      s_rtt_valid = true;
      s_backoff = 1.;
    };
  Alcotest.(check (float 1e-12)) "floored at min_rto" 0.2
    (Cc.Window_cc.rto tcp);
  Cc.Window_cc.import_state tcp
    {
      st with
      Cc.Window_cc.s_srtt = 0.001;
      s_rttvar = 0.;
      s_rtt_valid = true;
      s_backoff = 4.;
    };
  Alcotest.(check (float 1e-12)) "backoff scales the floored value" 0.8
    (Cc.Window_cc.rto tcp)

let test_karn_rule_on_first_loss () =
  (* Karn regression: the very first data packet is dropped, so its
     retransmission goes out ~1 s later (initial RTO).  A sampler that
     ignored Karn's rule would time the retransmit's ack against the
     original send and push srtt towards a second; the real estimator
     must stay pinned near the 50 ms path. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:2 in
  let make_queue () =
    Netsim.Loss_pattern.one_per_interval ~sim ~interval:1e9 ~start:0.
      (Netsim.Droptail.make ~capacity:1000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:10e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn sim db in
  (Cc.Window_cc.flow tcp).Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  let srtt = Cc.Window_cc.srtt tcp in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.3f not inflated by the retransmit" srtt)
    true
    (srtt > 0.04 && srtt < 0.2)

let suite =
  [
    Alcotest.test_case "rto min floor and backoff order" `Quick
      test_rto_min_floor_and_backoff_order;
    Alcotest.test_case "karn rule on first loss" `Quick
      test_karn_rule_on_first_loss;
    Alcotest.test_case "max window cap" `Quick test_max_window_cap;
    Alcotest.test_case "max window bounds rate" `Quick
      test_max_window_bounds_rate;
    Alcotest.test_case "initial window respected" `Quick
      test_initial_window_respected;
    Alcotest.test_case "initial window validated" `Quick
      test_initial_window_validated;
    Alcotest.test_case "finished flow stays quiet" `Quick
      test_finished_flow_ignores_acks;
    Alcotest.test_case "srtt stable under heavy loss" `Slow
      test_srtt_stable_under_heavy_loss;
    Alcotest.test_case "stale acks are not dupacks" `Quick
      test_stale_acks_are_not_dupacks;
    Alcotest.test_case "two flows share fairly" `Slow
      test_two_flows_share_fairly;
  ]

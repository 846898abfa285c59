(* The BBR-style sender: state machine progression, model accuracy
   against the known path, RTO floor, and coexistence. *)

let fixture ?(seed = 1) ?(bandwidth = 10e6) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth)
  in
  (sim, db)

let spawn sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  Cc.Bbr.create ~sim ~src ~dst ~flow ~pkt_size:1000

let test_model_converges () =
  (* 10 Mbps bottleneck, 1000-byte packets, 50 ms base RTT: the model
     should learn ~1250 pkt/s and ~50 ms, settle in PROBE_BW, and keep
     the pipe well utilized. *)
  let sim, db = fixture () in
  let b = spawn sim db in
  Cc.Bbr.start b;
  Engine.Sim.run ~until:15. sim;
  Alcotest.(check string) "settled in PROBE_BW" "PROBE_BW" (Cc.Bbr.mode b);
  let bw = Cc.Bbr.btl_bw_pps b in
  Alcotest.(check bool)
    (Printf.sprintf "btl_bw %.0f pps within 20%% of the link" bw)
    true
    (bw > 1000. && bw < 1500.);
  let rtprop = Cc.Bbr.rtprop b in
  Alcotest.(check bool)
    (Printf.sprintf "rtprop %.3f near the base RTT" rtprop)
    true
    (rtprop > 0.045 && rtprop < 0.08);
  let delivered = (Cc.Bbr.flow b).Cc.Flow.bytes_delivered () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% utilization"
       (delivered /. (10e6 /. 8. *. 15.) *. 100.))
    true
    (delivered > 0.6 *. (10e6 /. 8. *. 15.))

let test_probe_rtt_visits () =
  (* The rtprop filter ages over 10 s, so a 25 s run must collapse the
     window to re-measure at least once. *)
  let sim, db = fixture () in
  let b = spawn sim db in
  let seen = ref false in
  Cc.Bbr.start b;
  Engine.Sim.every sim ~interval:0.02 ~stop:25. (fun () ->
      if Cc.Bbr.mode b = "PROBE_RTT" then seen := true);
  Engine.Sim.run ~until:25. sim;
  Alcotest.(check bool) "entered PROBE_RTT" true !seen

let test_rto_floor () =
  let sim, db = fixture () in
  let b = spawn sim db in
  Alcotest.(check bool) "floored before any sample" true (Cc.Bbr.rto b >= 0.2);
  Cc.Bbr.start b;
  Engine.Sim.run ~until:5. sim;
  (* srtt ~50 ms with small rttvar: the raw formula would sit near 60 ms,
     an order below the floor. *)
  Alcotest.(check bool) "floored after samples" true (Cc.Bbr.rto b >= 0.2)

let test_two_flows_coexist () =
  let sim, db = fixture ~bandwidth:8e6 () in
  let a = spawn sim db and b = spawn sim db in
  Cc.Bbr.start a;
  Engine.Sim.at sim 1. (fun () -> Cc.Bbr.start b);
  Engine.Sim.run ~until:30. sim;
  let da = (Cc.Bbr.flow a).Cc.Flow.bytes_delivered ()
  and db_ = (Cc.Bbr.flow b).Cc.Flow.bytes_delivered () in
  let capacity = 8e6 /. 8. *. 30. in
  Alcotest.(check bool) "both make progress" true
    (da > 0.15 *. capacity && db_ > 0.15 *. capacity);
  Alcotest.(check bool) "sum bounded by the link" true
    (da +. db_ <= 1.02 *. capacity)

let test_paced_not_bursty () =
  (* In PROBE_BW the pacer spaces packets near 1/btl_bw: departures from
     the source should never burst the whole window at once.  Proxy: the
     bottleneck queue never holds more than a fraction of the BDP. *)
  let sim, db = fixture () in
  let b = spawn sim db in
  let link = Netsim.Dumbbell.bottleneck db in
  let max_q = ref 0 in
  Cc.Bbr.start b;
  Engine.Sim.every sim ~interval:0.005 ~stop:15. (fun () ->
      if Engine.Sim.now sim > 5. then
        max_q := max !max_q ((Netsim.Link.queue link).Netsim.Queue_intf.pkts ()));
  Engine.Sim.run ~until:15. sim;
  (* BDP is ~62 packets; steady-state PROBE_BW keeps the standing queue
     around the 1.25x probe overshoot, far below a full window burst. *)
  Alcotest.(check bool)
    (Printf.sprintf "max steady queue %d pkts" !max_q)
    true (!max_q < 62)

let suite =
  [
    Alcotest.test_case "model converges in PROBE_BW" `Slow test_model_converges;
    Alcotest.test_case "PROBE_RTT visits" `Slow test_probe_rtt_visits;
    Alcotest.test_case "rto floor" `Quick test_rto_floor;
    Alcotest.test_case "two flows coexist" `Slow test_two_flows_coexist;
    Alcotest.test_case "paced, not bursty" `Slow test_paced_not_bursty;
  ]

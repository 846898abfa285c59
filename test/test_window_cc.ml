(* Windowed congestion control: rules, slow-start, loss response,
   timeouts, completion, and static TCP-compatibility end to end. *)

let db_fixture ?(seed = 5) ?(bandwidth = 4e6) ?(queue = Netsim.Dumbbell.Red) ()
    =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let config =
    { (Netsim.Dumbbell.default_config ~bandwidth) with Netsim.Dumbbell.queue }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  (sim, db)

let spawn_tcp ?(cfg_of = Fun.id) sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    cfg_of (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5))
  in
  Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg

(* --- rules --- *)

let test_aimd_rule () =
  let r = Cc.Window_cc.aimd ~a:1. ~b:0.5 in
  Alcotest.(check (float 1e-9)) "increase" 1. (r.Cc.Window_cc.increase 10.);
  Alcotest.(check (float 1e-9)) "decrease" 5. (r.Cc.Window_cc.decrease 10.)

let test_tcp_compatible_a () =
  (* a = 4(2b - b^2)/3; at b = 1/2 this is 1 (standard TCP). *)
  let r = Cc.Window_cc.tcp_compatible_aimd ~b:0.5 in
  Alcotest.(check (float 1e-9)) "a at b=1/2" 1. (r.Cc.Window_cc.increase 99.);
  let r8 = Cc.Window_cc.tcp_compatible_aimd ~b:0.125 in
  let expected = 4. *. ((2. *. 0.125) -. (0.125 ** 2.)) /. 3. in
  Alcotest.(check (float 1e-9)) "a at b=1/8" expected
    (r8.Cc.Window_cc.increase 99.)

let test_binomial_rule () =
  let r = Cc.Window_cc.binomial ~k:0.5 ~l:0.5 ~a:1. ~b:1. in
  Alcotest.(check (float 1e-9)) "increase 1/sqrt(w)" 0.25
    (r.Cc.Window_cc.increase 16.);
  Alcotest.(check (float 1e-9)) "decrease w - sqrt(w)" 12.
    (r.Cc.Window_cc.decrease 16.)

let test_rule_validation () =
  Alcotest.check_raises "bad b" (Invalid_argument "Window_cc.aimd") (fun () ->
      ignore (Cc.Window_cc.aimd ~a:1. ~b:1.5))

(* --- behavior --- *)

let test_slow_start_growth () =
  let sim, db = db_fixture ~bandwidth:50e6 () in
  let tcp = spawn_tcp sim db in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  (* After ~6 RTTs without loss, the window should have grown far beyond
     linear: 2 -> ~2^6. *)
  Engine.Sim.run ~until:0.32 sim;
  Alcotest.(check bool) "exponential growth" true (Cc.Flow_soa.cwnd tcp 0 > 30.)

let test_self_clocking_idle () =
  (* With the destination handler removed, no acks return: the sender must
     send exactly its initial window and then stall until RTO. *)
  let sim, db = db_fixture () in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  let tcp = Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg in
  Netsim.Node.detach dst ~flow:flow_id;
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:0.15 sim;
  Alcotest.(check int) "only initial window sent" 2
    ((Cc.Flow_soa.flow tcp 0).Cc.Flow.pkts_sent ())

let test_rto_backoff () =
  let sim, db = db_fixture () in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  let tcp = Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg in
  Netsim.Node.detach dst ~flow:flow_id;
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:10. sim;
  let n = Cc.Flow_soa.timeouts tcp 0 in
  (* Exponential backoff: 1, 2, 4, ... seconds from the initial RTO, so
     roughly log2(10) timeouts, certainly under 10 and at least 3. *)
  Alcotest.(check bool) "backoff bounded timeouts" true (n >= 3 && n <= 8);
  Alcotest.(check (float 1e-9)) "window collapsed" 1. (Cc.Flow_soa.cwnd tcp 0)

let test_fast_retransmit () =
  (* A single forced drop must trigger fast retransmit, not a timeout. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:2 in
  let make_queue () =
    Netsim.Loss_pattern.by_count ~pattern:[ 30; 1000000 ]
      (Netsim.Droptail.make ~capacity:1000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:10e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn_tcp sim db in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check bool) "fast rtx happened" true
    (Cc.Flow_soa.fast_retransmits tcp 0 >= 1);
  Alcotest.(check int) "no timeout" 0 (Cc.Flow_soa.timeouts tcp 0)

let test_decrease_applied_on_loss () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:2 in
  let make_queue () =
    Netsim.Loss_pattern.by_count ~pattern:[ 100 ]
      (Netsim.Droptail.make ~capacity:10000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:20e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn_tcp sim db in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:30. sim;
  (* Periodic 1% loss: the window must oscillate around sqrt(1.5/p) ~ 12,
     never collapsing to 1 nor blowing up. *)
  let w = Cc.Flow_soa.cwnd tcp 0 in
  Alcotest.(check bool) "window in AIMD band" true (w > 4. && w < 40.)

let test_completion_callback () =
  let sim, db = db_fixture () in
  let done_ = ref false in
  let tcp =
    spawn_tcp
      ~cfg_of:(fun cfg ->
        {
          cfg with
          Cc.Window_cc.total_pkts = Some 10;
          on_complete = Some (fun _ -> done_ := true);
        })
      sim db
  in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check bool) "completed" true !done_;
  Alcotest.(check bool) "flagged" true (Cc.Flow_soa.finished tcp 0);
  Alcotest.(check (float 0.)) "all bytes delivered" 10000.
    ((Cc.Flow_soa.flow tcp 0).Cc.Flow.bytes_delivered ())

let test_srtt_estimate () =
  let sim, db = db_fixture () in
  let tcp = spawn_tcp sim db in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  let srtt = Cc.Flow_soa.srtt tcp 0 in
  Alcotest.(check bool) "srtt near topology rtt" true
    (srtt > 0.045 && srtt < 0.15)

let test_throughput_near_formula () =
  (* Deterministic periodic loss p = 1/150: TCP throughput should be near
     sqrt(1.5/p) packets per RTT. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:2 in
  let make_queue () =
    Netsim.Loss_pattern.by_count ~pattern:[ 150 ]
      (Netsim.Droptail.make ~capacity:10000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:50e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn_tcp sim db in
  let flow = Cc.Flow_soa.flow tcp 0 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:60. sim;
  let pkts_per_rtt = flow.Cc.Flow.bytes_delivered () /. 1000. /. (60. /. 0.05) in
  let expected = sqrt (1.5 *. 150.) in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.1f vs formula %.1f pkt/RTT" pkts_per_rtt
       expected)
    true
    (pkts_per_rtt > 0.6 *. expected && pkts_per_rtt < 1.4 *. expected)

let test_stop_silences_flow () =
  let sim, db = db_fixture () in
  let tcp = spawn_tcp sim db in
  let flow = Cc.Flow_soa.flow tcp 0 in
  flow.Cc.Flow.start ();
  Engine.Sim.at sim 2. flow.Cc.Flow.stop;
  Engine.Sim.run ~until:2.5 sim;
  let sent_at_stop = flow.Cc.Flow.pkts_sent () in
  Engine.Sim.run ~until:4. sim;
  Alcotest.(check int) "no sends after stop" sent_at_stop
    (flow.Cc.Flow.pkts_sent ())

let prop_decrease_never_negative =
  QCheck2.Test.make ~name:"tcp-compatible decrease stays positive" ~count:200
    QCheck2.Gen.(pair (float_range 0.01 0.99) (float_range 1. 1000.))
    (fun (b, w) ->
      let r = Cc.Window_cc.tcp_compatible_aimd ~b in
      r.Cc.Window_cc.decrease w >= 0.)

let prop_binomial_compat_k_plus_l =
  (* For calibrated SQRT params, the deterministic average window must be
     close to TCP's across a band of loss rates (k + l = 1 property). *)
  QCheck2.Test.make ~name:"calibrated sqrt tracks tcp response" ~count:8
    QCheck2.Gen.(float_range 0.005 0.03)
    (fun p ->
      let a, b = Analysis.Binomial_calibration.sqrt_params ~gamma:2. () in
      let w =
        Analysis.Binomial_calibration.average_window ~k:0.5 ~l:0.5 ~a ~b ~p
      in
      let tcp = sqrt (1.5 /. p) in
      w > 0.7 *. tcp && w < 1.4 *. tcp)

let suite =
  [
    Alcotest.test_case "aimd rule" `Quick test_aimd_rule;
    Alcotest.test_case "tcp-compatible a(b)" `Quick test_tcp_compatible_a;
    Alcotest.test_case "binomial rule" `Quick test_binomial_rule;
    Alcotest.test_case "rule validation" `Quick test_rule_validation;
    Alcotest.test_case "slow-start growth" `Quick test_slow_start_growth;
    Alcotest.test_case "self-clocking stalls without acks" `Quick
      test_self_clocking_idle;
    Alcotest.test_case "rto exponential backoff" `Quick test_rto_backoff;
    Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
    Alcotest.test_case "decrease on loss" `Quick test_decrease_applied_on_loss;
    Alcotest.test_case "completion callback" `Quick test_completion_callback;
    Alcotest.test_case "srtt estimate" `Quick test_srtt_estimate;
    Alcotest.test_case "throughput near response function" `Slow
      test_throughput_near_formula;
    Alcotest.test_case "stop silences flow" `Quick test_stop_silences_flow;
    QCheck_alcotest.to_alcotest prop_decrease_never_negative;
    QCheck_alcotest.to_alcotest prop_binomial_compat_k_plus_l;
  ]

(* Protocol variants: ECN marking and the one-per-interval dropper. *)

let db_fixture ?(seed = 5) ?(bandwidth = 8e6) ?(queue = Netsim.Dumbbell.Red) ()
    =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let config =
    { (Netsim.Dumbbell.default_config ~bandwidth) with Netsim.Dumbbell.queue }
  in
  (sim, Netsim.Dumbbell.create ~sim ~rng config)

let spawn_wcc sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  Cc.Window_cc.create ~sim ~src ~dst ~flow:flow_id cfg

(* --- ECN --- *)

let test_tcp_reduces_on_ecn_without_loss () =
  let sim, db = db_fixture ~queue:Netsim.Dumbbell.Red_ecn ~bandwidth:4e6 () in
  let tcp = spawn_wcc sim db in
  (Cc.Window_cc.flow tcp).Cc.Flow.start ();
  (* Skip the slow-start overshoot (marking cannot prevent a buffer
     overflow burst); steady state must be purely mark-driven. *)
  Engine.Sim.run ~until:10. sim;
  let link = Netsim.Dumbbell.bottleneck db in
  let drops10 = Netsim.Link.drops link in
  let rtx10 = Cc.Window_cc.retransmitted_pkts tcp in
  Engine.Sim.run ~until:40. sim;
  Alcotest.(check int) "no steady-state drops" drops10 (Netsim.Link.drops link);
  Alcotest.(check int) "no steady-state retransmissions" rtx10
    (Cc.Window_cc.retransmitted_pkts tcp);
  Alcotest.(check bool) "window bounded" true (Cc.Window_cc.cwnd tcp < 120.);
  let mbps =
    (Cc.Window_cc.flow tcp).Cc.Flow.bytes_delivered () *. 8. /. 40. /. 1e6
  in
  Alcotest.(check bool) "still fills link" true (mbps > 2.8)

let test_tfrc_reacts_to_ecn_marks () =
  let sim, db = db_fixture ~queue:Netsim.Dumbbell.Red_ecn ~bandwidth:4e6 () in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let tfrc =
    Cc.Tfrc.create ~sim ~src ~dst ~flow:flow_id (Cc.Tfrc.default_config ~k:6)
  in
  (Cc.Tfrc.flow tfrc).Cc.Flow.start ();
  Engine.Sim.run ~until:40. sim;
  (* Marks, not drops, must still produce a positive loss-event estimate
     and a bounded rate. *)
  Alcotest.(check bool) "loss event rate from marks" true
    (Cc.Tfrc.loss_event_rate tfrc > 0.);
  let mbps =
    (Cc.Tfrc.flow tfrc).Cc.Flow.bytes_delivered () *. 8. /. 40. /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "rate bounded near link (%.2f)" mbps)
    true
    (mbps > 2. && mbps < 4.2)

(* --- one-per-interval dropper --- *)

let test_one_per_interval () =
  let sim = Engine.Sim.create () in
  let q =
    Netsim.Loss_pattern.one_per_interval ~sim ~interval:1. ~start:2.
      (Netsim.Droptail.make ~capacity:1000)
  in
  let dropped = ref [] in
  (* Offer a packet every 0.2 s for 5 s. *)
  Engine.Sim.every sim ~interval:0.2 ~stop:4.99 (fun () ->
      let pkt = Netsim.Packet.make ~flow:0 ~src:0 ~dst:1 ~sent_at:0. () in
      match q.Netsim.Queue_intf.enqueue pkt with
      | Netsim.Queue_intf.Dropped ->
        dropped := Engine.Sim.now sim :: !dropped
      | _ -> ignore (q.Netsim.Queue_intf.dequeue ()));
  Engine.Sim.run sim;
  let drops = List.rev !dropped in
  (* One drop per 1s window after t=2: windows [2,3), [3,4), [4,5). *)
  Alcotest.(check int) "three drops" 3 (List.length drops);
  List.iter
    (fun t -> Alcotest.(check bool) "after start" true (t >= 2.))
    drops

let suite =
  [
    Alcotest.test_case "tcp reduces on ecn" `Slow
      test_tcp_reduces_on_ecn_without_loss;
    Alcotest.test_case "tfrc reacts to ecn marks" `Slow
      test_tfrc_reacts_to_ecn_marks;
    Alcotest.test_case "one-per-interval dropper" `Quick test_one_per_interval;
  ]

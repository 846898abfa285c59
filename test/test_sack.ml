(* SACK: scoreboard-driven loss recovery (simplified RFC 3517). *)

let spawn ?(sack = true) ?(cfg_of = Fun.id) sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cfg =
    cfg_of
      {
        (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)) with
        Cc.Window_cc.sack;
      }
  in
  Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg

let burst_loss_fixture ~sack ~burst =
  (* Drop [burst] consecutive packets once, early in the flow. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:3 in
  let make_queue () =
    let inner = Netsim.Droptail.make ~capacity:10000 in
    let count = ref 0 in
    {
      inner with
      Netsim.Queue_intf.enqueue =
        (fun pkt ->
          if Netsim.Packet.is_ack pkt then inner.Netsim.Queue_intf.enqueue pkt
          else begin
            incr count;
            if !count > 50 && !count <= 50 + burst then
              Netsim.Queue_intf.Dropped
            else inner.Netsim.Queue_intf.enqueue pkt
          end);
    }
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:20e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn ~sack sim db in
  (sim, tcp)

let test_sack_blocks_generated () =
  (* Receiver-side check: holes produce SACK blocks on duplicate acks.
     The engine's sender side stays idle; a probe replaces its ack
     handler to capture what the sink sends. *)
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create ~id:1 in
  let sender = Netsim.Node.create ~id:0 in
  let link =
    Netsim.Link.make ~sim ~bandwidth:1e9 ~delay:0.
      ~queue:(Netsim.Droptail.make ~capacity:1000)
  in
  Netsim.Link.connect link (Netsim.Node.receive sender);
  Netsim.Node.set_default_route node link;
  let cfg =
    {
      (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)) with
      Cc.Window_cc.sack = true;
    }
  in
  ignore (Cc.Flow_soa.create ~sim ~src:sender ~dst:node ~base:1 ~n:1 cfg);
  let sacks = ref [] in
  Netsim.Node.attach sender ~flow:1 (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Netsim.Packet.Ack { sack; _ } -> sacks := sack :: !sacks
      | _ -> ());
  let send seq =
    Netsim.Node.receive node
      (Netsim.Packet.make ~size:1000 ~seq ~payload:Netsim.Packet.Plain ~flow:1
         ~src:0 ~dst:1)
  in
  (* Deliver 0, skip 1-2, deliver 3-4, skip 5, deliver 6. *)
  List.iter send [ 0; 3; 4; 6 ];
  Engine.Sim.run sim;
  match !sacks with
  | last :: _ ->
    Alcotest.(check (list (pair int int))) "blocks, newest-high first"
      [ (6, 7); (3, 5) ]
      last
  | [] -> Alcotest.fail "no acks observed"

let test_sack_recovers_burst_without_timeout () =
  let sim, tcp = burst_loss_fixture ~sack:true ~burst:15 in
  (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check int) "no timeouts" 0 (Cc.Flow_soa.timeouts tcp 0);
  Alcotest.(check bool) "made progress" true
    ((Cc.Flow_soa.flow tcp 0).Cc.Flow.bytes_delivered () > 1e6)

let test_newreno_needs_timeout_on_same_burst () =
  (* The same burst without SACK must be visibly costlier: either a
     timeout or clearly less delivered data. *)
  let run sack =
    let sim, tcp = burst_loss_fixture ~sack ~burst:15 in
    (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
    Engine.Sim.run ~until:5. sim;
    (Cc.Flow_soa.timeouts tcp 0, (Cc.Flow_soa.flow tcp 0).Cc.Flow.bytes_delivered ())
  in
  let to_sack, bytes_sack = run true in
  let to_plain, bytes_plain = run false in
  Alcotest.(check bool)
    (Printf.sprintf "sack (%d timeouts, %.0f B) beats newreno (%d, %.0f B)"
       to_sack bytes_sack to_plain bytes_plain)
    true
    (to_plain > to_sack || bytes_sack > 1.2 *. bytes_plain)

let test_sack_steady_state_unchanged () =
  (* In ordinary single-loss operation SACK and NewReno behave alike. *)
  let run sack =
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed:4 in
    let db =
      Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth:8e6)
    in
    let tcp = spawn ~sack sim db in
    (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
    Engine.Sim.run ~until:30. sim;
    (Cc.Flow_soa.flow tcp 0).Cc.Flow.bytes_delivered ()
  in
  let with_sack = run true and plain = run false in
  Alcotest.(check bool)
    (Printf.sprintf "within 15%% (%.0f vs %.0f)" with_sack plain)
    true
    (with_sack > 0.85 *. plain && with_sack < 1.15 *. plain)

let test_sack_between_appendix_bounds () =
  (* Appendix A: "TCPs with Selective Acknowledgements ... should fall
     somewhere between the two lines."  Check at p = 0.1. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:6 in
  let make_queue () =
    Netsim.Loss_pattern.bernoulli ~rng:(Engine.Rng.split rng) ~p:0.1
      (Netsim.Droptail.make ~capacity:100000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:50e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let tcp = spawn ~sack:true sim db in
  let flow = Cc.Flow_soa.flow tcp 0 in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:120. sim;
  let pkts_per_rtt = flow.Cc.Flow.bytes_delivered () /. 1000. /. 2400. in
  let lower = Analysis.Response_function.reno_padhye ~p:0.1 () in
  let upper = Analysis.Response_function.aimd_with_timeouts ~p:0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f in [%.2f x 0.8, %.2f x 4]" pkts_per_rtt
       lower upper)
    true
    (* SACK should be at or above plain Reno; generous band. *)
    (pkts_per_rtt > 0.8 *. lower && pkts_per_rtt < 4. *. upper)

let suite =
  [
    Alcotest.test_case "sack blocks generated" `Quick test_sack_blocks_generated;
    Alcotest.test_case "burst recovery without timeout" `Quick
      test_sack_recovers_burst_without_timeout;
    Alcotest.test_case "beats newreno on bursts" `Quick
      test_newreno_needs_timeout_on_same_burst;
    Alcotest.test_case "steady state unchanged" `Slow
      test_sack_steady_state_unchanged;
    Alcotest.test_case "within appendix bounds" `Slow
      test_sack_between_appendix_bounds;
  ]

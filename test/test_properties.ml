(* System-level property tests: protocol invariants under randomized
   loss environments and seeds. *)

let run_tcp_under_loss ~seed ~p ~horizon =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let make_queue () =
    Netsim.Loss_pattern.bernoulli ~rng:(Engine.Rng.split rng) ~p
      (Netsim.Droptail.make ~capacity:1000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:10e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let tcp =
    Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1
      (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5))
  in
  let flow = Cc.Flow_soa.flow tcp 0 in
  flow.Cc.Flow.start ();
  let violations = ref [] in
  Engine.Sim.every sim ~interval:0.05 ~stop:horizon (fun () ->
      if Cc.Flow_soa.cwnd tcp 0 < 1. then
        violations := "cwnd below 1" :: !violations;
      if Cc.Flow_soa.inflight tcp 0 < 0 then
        violations := "negative inflight" :: !violations;
      if Cc.Flow_soa.srtt tcp 0 > 5. then
        violations := "absurd srtt" :: !violations);
  Engine.Sim.run ~until:horizon sim;
  (tcp, flow, !violations)

let prop_tcp_invariants_under_random_loss =
  QCheck2.Test.make ~name:"tcp invariants hold under random loss" ~count:12
    QCheck2.Gen.(pair (int_range 1 10000) (float_range 0.0 0.2))
    (fun (seed, p) ->
      let _, flow, violations = run_tcp_under_loss ~seed ~p ~horizon:20. in
      violations = []
      && flow.Cc.Flow.bytes_delivered () <= flow.Cc.Flow.bytes_sent ())

let prop_tcp_progress_under_moderate_loss =
  QCheck2.Test.make ~name:"tcp makes progress when p <= 0.1" ~count:8
    QCheck2.Gen.(pair (int_range 1 10000) (float_range 0.0 0.1))
    (fun (seed, p) ->
      let _, flow, _ = run_tcp_under_loss ~seed ~p ~horizon:20. in
      (* At least ~1 pkt/RTT of goodput. *)
      flow.Cc.Flow.bytes_delivered () > 20. /. 0.05 *. 1000. *. 0.5)

let prop_short_transfers_complete =
  QCheck2.Test.make ~name:"short transfers complete under light loss"
    ~count:10
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 50))
    (fun (seed, npkts) ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let make_queue () =
        Netsim.Loss_pattern.bernoulli ~rng:(Engine.Rng.split rng) ~p:0.02
          (Netsim.Droptail.make ~capacity:1000)
      in
      let config =
        {
          (Netsim.Dumbbell.default_config ~bandwidth:10e6) with
          Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
        }
      in
      let db = Netsim.Dumbbell.create ~sim ~rng config in
      let src, dst = Netsim.Dumbbell.add_host_pair db in
      let flow_id = Netsim.Dumbbell.fresh_flow db in
      let done_ = ref false in
      let tcp =
        Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1
          {
            (Cc.Window_cc.default_config
               (Cc.Window_cc.tcp_compatible_aimd ~b:0.5))
            with
            Cc.Window_cc.total_pkts = Some npkts;
            on_complete = Some (fun _ -> done_ := true);
          }
      in
      (Cc.Flow_soa.flow tcp 0).Cc.Flow.start ();
      Engine.Sim.run ~until:120. sim;
      !done_)

let prop_scenario_determinism =
  QCheck2.Test.make ~name:"scenarios are deterministic per seed" ~count:5
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let run () =
        let r =
          Slowcc.Scenarios.square_wave ~seed ~measure:20.
            ~flows:[ (Slowcc.Protocol.tcp ~gamma:2., 2) ]
            ~bandwidth:5e6 ~cbr_fraction:0.5 ~period:1. ()
        in
        ( List.map snd r.Slowcc.Scenarios.per_flow,
          r.Slowcc.Scenarios.drop_rate )
      in
      run () = run ())

let prop_tfrc_rate_bounded_by_link =
  QCheck2.Test.make ~name:"tfrc long-term goodput bounded by link rate"
    ~count:6
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed in
      let db =
        Netsim.Dumbbell.create ~sim ~rng
          (Netsim.Dumbbell.default_config ~bandwidth:4e6)
      in
      let flow = Slowcc.Protocol.spawn (Slowcc.Protocol.tfrc ~k:6 ()) db in
      flow.Cc.Flow.start ();
      Engine.Sim.run ~until:30. sim;
      flow.Cc.Flow.bytes_delivered () *. 8. /. 30. <= 4e6 *. 1.01)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_tcp_invariants_under_random_loss;
    QCheck_alcotest.to_alcotest prop_tcp_progress_under_moderate_loss;
    QCheck_alcotest.to_alcotest prop_short_transfers_complete;
    QCheck_alcotest.to_alcotest prop_scenario_determinism;
    QCheck_alcotest.to_alcotest prop_tfrc_rate_bounded_by_link;
  ]

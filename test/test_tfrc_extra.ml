(* Additional TFRC behaviors: conservative cap after loss, expedited
   feedback, RTT heterogeneity. *)

let phased_fixture ?(seed = 7) ?(bandwidth = 20e6) ~phases ~cfg_of () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let make_queue () =
    Netsim.Loss_pattern.by_phase ~sim ~phases
      (Netsim.Droptail.make ~capacity:10000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let tfrc =
    Cc.Tfrc.create ~sim ~src ~dst ~flow:flow_id (cfg_of (Cc.Tfrc.default_config ~k:6))
  in
  (sim, tfrc)

let test_conservative_caps_after_loss_burst () =
  (* During a heavy-loss second, the conservative sender's allowed rate
     must immediately track the receive rate; without the option it may
     exceed it by up to 2x.  Compare the peak sending rates during the
     burst window. *)
  let run conservative =
    let sim, tfrc =
      phased_fixture
        ~phases:[ (20.0, 0); (2.0, 3); (100.0, 0) ]
        ~cfg_of:(fun c -> { c with Cc.Tfrc.conservative })
        ()
    in
    let flow = Cc.Tfrc.flow tfrc in
    flow.Cc.Flow.start ();
    let rate =
      Engine.Probe.sample_rate sim ~every:0.1 (fun () ->
          flow.Cc.Flow.bytes_sent ())
    in
    Engine.Sim.run ~until:23. sim;
    (* Peak sending rate during the burst (losses start at t=20). *)
    List.fold_left
      (fun acc (t, v) -> if t >= 20.5 && t < 22. then Float.max acc v else acc)
      0.
      (Engine.Timeseries.to_list rate)
  in
  let peak_cons = run true and peak_plain = run false in
  Alcotest.(check bool)
    (Printf.sprintf "conservative peak %.0f <= plain peak %.0f" peak_cons
       peak_plain)
    true
    (peak_cons <= peak_plain *. 1.05)

let test_feedback_expedited_on_loss () =
  (* A new loss event triggers an immediate feedback packet rather than
     waiting for the next per-RTT report: the sender learns p quickly. *)
  let sim, tfrc =
    phased_fixture
      ~phases:[ (10.0, 0); (1.0, 5); (100.0, 0) ]
      ~cfg_of:Fun.id ()
  in
  (Cc.Tfrc.flow tfrc).Cc.Flow.start ();
  Engine.Sim.run ~until:10.3 sim;
  (* Within ~2 RTTs of the burst starting, the sender's estimate is
     already nonzero. *)
  Alcotest.(check bool) "sender knows about the loss" true
    (Cc.Tfrc.loss_event_rate tfrc > 0.)

let test_rtt_scaling () =
  (* Throughput of TFRC follows the equation's 1/R dependence: a flow
     with triple the RTT gets roughly a third of the rate at the same
     loss environment.  Run both against the same periodic loss. *)
  let run extra_delay =
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed:7 in
    let make_queue () =
      Netsim.Loss_pattern.by_count ~pattern:[ 100 ]
        (Netsim.Droptail.make ~capacity:10000)
    in
    let config =
      {
        (Netsim.Dumbbell.default_config ~bandwidth:30e6) with
        Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
      }
    in
    let db = Netsim.Dumbbell.create ~sim ~rng config in
    let flow =
      Slowcc.Protocol.spawn ~extra_delay (Slowcc.Protocol.tfrc ~k:6 ()) db
    in
    flow.Cc.Flow.start ();
    Engine.Sim.run ~until:60. sim;
    flow.Cc.Flow.bytes_delivered ()
  in
  let short = run 0. and long = run 0.025 in
  let ratio = short /. Float.max 1. long in
  Alcotest.(check bool)
    (Printf.sprintf "50ms/150ms ratio %.2f in [1.5, 5]" ratio)
    true
    (ratio > 1.5 && ratio < 5.)

let test_nofb_recv_rate_dyadic_guard () =
  (* Regression pin for the no-feedback receive-rate computation: two
     feedback timers can fire at the same simulated instant (dyadic
     timestamps collide exactly, not approximately), making the elapsed
     window 0.  The rate must hold its previous value, never divide by
     zero into inf/nan. *)
  Alcotest.(check (float 0.)) "zero elapsed keeps previous" 123.
    (Cc.Tfrc.nofb_recv_rate ~bytes:4000 ~elapsed:0. ~prev:123.);
  Alcotest.(check bool) "never non-finite" true
    (Float.is_finite (Cc.Tfrc.nofb_recv_rate ~bytes:4000 ~elapsed:0. ~prev:0.));
  Alcotest.(check (float 1e-9)) "positive elapsed divides" 2000.
    (Cc.Tfrc.nofb_recv_rate ~bytes:4000 ~elapsed:2. ~prev:123.)

let suite =
  [
    Alcotest.test_case "no-feedback rate dyadic guard" `Quick
      test_nofb_recv_rate_dyadic_guard;
    Alcotest.test_case "conservative caps burst rate" `Slow
      test_conservative_caps_after_loss_burst;
    Alcotest.test_case "feedback expedited on loss" `Quick
      test_feedback_expedited_on_loss;
    Alcotest.test_case "rtt scaling" `Slow test_rtt_scaling;
  ]

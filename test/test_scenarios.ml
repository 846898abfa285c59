(* Integration tests: small, fast instances of each paper scenario. *)

let tcp = Slowcc.Protocol.tcp ~gamma:2.

let test_cbr_restart_small () =
  (* Shrunk timeline variant is not exposed; instead use few flows and a
     small link so the full 300 s run still finishes quickly. *)
  let r =
    Slowcc.Scenarios.cbr_restart ~n_flows:4 ~duration:220. ~protocol:tcp
      ~bandwidth:6e6 ()
  in
  Alcotest.(check bool) "positive steady loss" true
    (r.Slowcc.Scenarios.steady_loss > 0.001);
  (match r.Slowcc.Scenarios.stab with
  | Some s ->
    Alcotest.(check bool) "tcp stabilizes fast" true
      (s.Slowcc.Metrics.time_rtts < 400.)
  | None -> ());
  (* The loss series must cover the full run. *)
  match Engine.Timeseries.last r.Slowcc.Scenarios.loss_series with
  | Some (t, _) -> Alcotest.(check bool) "series spans run" true (t > 210.)
  | None -> Alcotest.fail "empty series"

let test_square_wave_homogeneous_fair () =
  let r =
    Slowcc.Scenarios.square_wave ~measure:40. ~flows:[ (tcp, 4) ]
      ~bandwidth:8e6 ~cbr_fraction:(2. /. 3.) ~period:2. ()
  in
  (* Four identical flows: each near the fair share of what TCP achieves. *)
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "near fair" true (v > 0.3 && v < 1.7))
    r.Slowcc.Scenarios.per_flow;
  Alcotest.(check bool) "utilization sane" true
    (r.Slowcc.Scenarios.utilization > 0.4
    && r.Slowcc.Scenarios.utilization < 1.1);
  Alcotest.(check bool) "drops occur" true (r.Slowcc.Scenarios.drop_rate > 0.)

let test_square_wave_group_mean () =
  let tfrc = Slowcc.Protocol.tfrc ~k:6 () in
  let r =
    Slowcc.Scenarios.square_wave ~measure:40.
      ~flows:[ (tcp, 2); (tfrc, 2) ]
      ~bandwidth:8e6 ~cbr_fraction:(2. /. 3.) ~period:2. ()
  in
  let m_tcp = r.Slowcc.Scenarios.group_mean "TCP(1/2)" in
  let m_tfrc = r.Slowcc.Scenarios.group_mean "TFRC(6)" in
  Alcotest.(check bool) "groups positive" true (m_tcp > 0. && m_tfrc > 0.);
  Alcotest.(check (float 0.)) "unknown group" 0.
    (r.Slowcc.Scenarios.group_mean "nope")

let test_square_wave_validation () =
  Alcotest.check_raises "fraction"
    (Invalid_argument "square_wave: cbr_fraction in (0,1)") (fun () ->
      ignore
        (Slowcc.Scenarios.square_wave ~flows:[ (tcp, 1) ] ~bandwidth:1e6
           ~cbr_fraction:1.5 ~period:1. ()));
  List.iter
    (fun period ->
      Alcotest.check_raises (Printf.sprintf "period %g" period)
        (Invalid_argument "square_wave: period must be finite and positive")
        (fun () ->
          ignore
            (Slowcc.Scenarios.square_wave ~flows:[ (tcp, 1) ] ~bandwidth:1e6
               ~cbr_fraction:0.5 ~period ())))
    [ 0.; Float.nan ]

let test_fair_convergence_returns () =
  let time, converged =
    Slowcc.Scenarios.fair_convergence ~n_trials:1 ~cap:120. ~protocol:tcp
      ~bandwidth:4e6 ()
  in
  Alcotest.(check int) "converged" 1 converged;
  Alcotest.(check bool) "quick for standard tcp" true (time < 60.)

let test_bandwidth_double () =
  let r =
    Slowcc.Scenarios.bandwidth_double ~t_stop:40. ~protocol:tcp
      ~bandwidth:8e6 ()
  in
  Alcotest.(check bool) "f20 in (0.4, 1.05)" true
    (r.Slowcc.Scenarios.f20 > 0.4 && r.Slowcc.Scenarios.f20 < 1.05);
  Alcotest.(check bool) "f200 >= f20 roughly" true
    (r.Slowcc.Scenarios.f200 > r.Slowcc.Scenarios.f20 -. 0.15)

let test_loss_pattern () =
  let r =
    Slowcc.Scenarios.loss_pattern ~duration:30. ~protocol:tcp
      ~pattern:(Slowcc.Scenarios.Counts [ 100 ])
      ~bandwidth:10e6 ()
  in
  Alcotest.(check bool) "throughput positive" true
    (r.Slowcc.Scenarios.avg_throughput > 10000.);
  Alcotest.(check bool) "smoothness >= 1" true
    (r.Slowcc.Scenarios.smoothness >= 1.);
  Alcotest.(check bool) "series populated" true
    (Engine.Timeseries.length r.Slowcc.Scenarios.rate_02s > 100)

let test_flash_crowd_scenario () =
  let r =
    Slowcc.Scenarios.flash_crowd ~duration:40. ~protocol:tcp ~bandwidth:6e6
      ()
  in
  Alcotest.(check bool) "crowd launched" true
    (r.Slowcc.Scenarios.crowd_started > 500);
  (* Background throughput before the crowd exceeds during-crowd level. *)
  let before =
    Slowcc.Metrics.mean_between r.Slowcc.Scenarios.bg_rate ~lo:15. ~hi:24.
  in
  let during =
    Slowcc.Metrics.mean_between r.Slowcc.Scenarios.bg_rate ~lo:26. ~hi:30.
  in
  Alcotest.(check bool)
    (Printf.sprintf "crowd displaced bg (%.0f -> %.0f)" before during)
    true (during < before)

let test_sawtooth_shapes () =
  (* All three CBR shapes drive the scenario sanely; sawtooth averages the
     same duty cycle so utilization stays comparable. *)
  let run shape =
    let r =
      Slowcc.Scenarios.square_wave ~shape ~measure:30. ~flows:[ (tcp, 3) ]
        ~bandwidth:8e6 ~cbr_fraction:(2. /. 3.) ~period:2. ()
    in
    r.Slowcc.Scenarios.utilization
  in
  List.iter
    (fun shape ->
      let u = run shape in
      Alcotest.(check bool)
        (Printf.sprintf "utilization %.2f sane" u)
        true
        (u > 0.3 && u < 1.2))
    [ Slowcc.Scenarios.Square; Slowcc.Scenarios.Sawtooth;
      Slowcc.Scenarios.Reverse_sawtooth ]

let test_determinism () =
  let run () =
    let r =
      Slowcc.Scenarios.square_wave ~seed:9 ~measure:30. ~flows:[ (tcp, 2) ]
        ~bandwidth:6e6 ~cbr_fraction:0.5 ~period:2. ()
    in
    List.map snd r.Slowcc.Scenarios.per_flow
  in
  Alcotest.(check (list (float 0.))) "bit-identical reruns" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "cbr restart" `Slow test_cbr_restart_small;
    Alcotest.test_case "square wave homogeneous" `Slow
      test_square_wave_homogeneous_fair;
    Alcotest.test_case "square wave group means" `Slow
      test_square_wave_group_mean;
    Alcotest.test_case "square wave validation" `Quick
      test_square_wave_validation;
    Alcotest.test_case "fair convergence" `Slow test_fair_convergence_returns;
    Alcotest.test_case "bandwidth double" `Slow test_bandwidth_double;
    Alcotest.test_case "loss pattern" `Slow test_loss_pattern;
    Alcotest.test_case "flash crowd" `Slow test_flash_crowd_scenario;
    Alcotest.test_case "sawtooth shapes" `Slow test_sawtooth_shapes;
    Alcotest.test_case "determinism" `Slow test_determinism;
  ]

(* The Vegas-style sender: delay-based convergence, standing-queue
   control checked against ground-truth queueing delay from the link
   hook, base-RTT accuracy, and the RTO floor. *)

let fixture ?(seed = 1) ?(bandwidth = 8e6) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth)
  in
  (sim, db)

let spawn ?(cfg = Cc.Vegas.default_config) sim db =
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow = Netsim.Dumbbell.fresh_flow db in
  Cc.Vegas.create ~sim ~src ~dst ~flow cfg

let test_converges_without_loss () =
  (* 8 Mbps / 50 ms = 50-packet BDP.  Vegas should fill the pipe, hold
     alpha..beta packets of standing queue, and stay out of slow start —
     all with (near) zero drops, the defining delay-based property. *)
  let sim, db = fixture () in
  let v = spawn sim db in
  Cc.Vegas.start v;
  Engine.Sim.run ~until:20. sim;
  let delivered = (Cc.Vegas.flow v).Cc.Flow.bytes_delivered () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% utilization"
       (delivered /. (8e6 /. 8. *. 20.) *. 100.))
    true
    (delivered > 0.7 *. (8e6 /. 8. *. 20.));
  Alcotest.(check bool) "out of slow start" true
    (not (Cc.Vegas.in_slow_start v));
  let drops = Netsim.Link.drops (Netsim.Dumbbell.bottleneck db) in
  Alcotest.(check bool)
    (Printf.sprintf "%d drops (delay-based, not loss-based)" drops)
    true (drops < 20)

let test_standing_queue_ground_truth () =
  (* The link's queueing-delay hook gives exact per-packet ground truth;
     in steady state Vegas targets alpha..beta packets of standing queue
     (1..4 ms at 1 ms/packet), so the measured mean must sit well below
     what a loss-based sender would pile up (the 2.5x-BDP buffer is
     ~125 ms deep). *)
  let sim, db = fixture () in
  let v = spawn sim db in
  let sum = ref 0. and n = ref 0 in
  Netsim.Link.on_queue_delay (Netsim.Dumbbell.bottleneck db) (fun _ d ->
      if Engine.Sim.now sim > 10. then begin
        sum := !sum +. d;
        incr n
      end);
  Cc.Vegas.start v;
  Engine.Sim.run ~until:20. sim;
  Alcotest.(check bool) "steady-state samples" true (!n > 1000);
  let mean = !sum /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "mean queueing delay %.2f ms" (mean *. 1e3))
    true
    (mean > 0. && mean < 0.012);
  let sq = Cc.Vegas.standing_queue v in
  Alcotest.(check bool)
    (Printf.sprintf "diff estimate %.1f pkts inside the band" sq)
    true
    (sq >= 0. && sq <= 8.)

let test_base_rtt_accuracy () =
  let sim, db = fixture () in
  let v = spawn sim db in
  Cc.Vegas.start v;
  Engine.Sim.run ~until:20. sim;
  let base = Cc.Vegas.base_rtt_estimate v in
  (* Base two-way propagation is 50 ms plus one serialization. *)
  Alcotest.(check bool)
    (Printf.sprintf "base RTT %.4f near propagation" base)
    true
    (base > 0.045 && base < 0.06);
  let srtt = Cc.Vegas.srtt v in
  Alcotest.(check bool)
    (Printf.sprintf "srtt %.4f >= base" srtt)
    true (srtt >= 0.045 && srtt < 0.1)

let test_rto_floor () =
  let sim, db = fixture () in
  let v = spawn sim db in
  Alcotest.(check bool) "floored before any sample" true
    (Cc.Vegas.rto v >= 0.2);
  Cc.Vegas.start v;
  Engine.Sim.run ~until:5. sim;
  (* A clean 50 ms path: srtt + 4*rttvar lands far below 200 ms. *)
  Alcotest.(check bool) "floored after samples" true (Cc.Vegas.rto v >= 0.2)

(* NaN fails every comparison and infinity passes them, so a range check
   must refuse both explicitly. *)
let test_config_validation () =
  let sim, db = fixture () in
  List.iter
    (fun (what, alpha, beta) ->
      Alcotest.check_raises what
        (Invalid_argument "Vegas: need finite 0 <= alpha <= beta") (fun () ->
          ignore
            (spawn ~cfg:{ Cc.Vegas.default_config with alpha; beta } sim db)))
    [
      ("beta < alpha", 5., 2.);
      ("alpha = beta = nan", Float.nan, Float.nan);
      ("alpha = nan", Float.nan, 3.);
      ("beta = infinity", 1., Float.infinity);
    ]

let test_recovers_from_loss () =
  (* A deterministic single drop: Vegas retransmits (fast or RTO), keeps
     its srtt honest under Karn's rule, and finishes the run healthy. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:3 in
  let make_queue () =
    Netsim.Loss_pattern.one_per_interval ~sim ~interval:1e9 ~start:0.
      (Netsim.Droptail.make ~capacity:1000)
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:8e6) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng config in
  let v = spawn sim db in
  Cc.Vegas.start v;
  Engine.Sim.run ~until:10. sim;
  Alcotest.(check bool) "recovered and kept sending" true
    ((Cc.Vegas.flow v).Cc.Flow.bytes_delivered () > 0.5 *. (8e6 /. 8. *. 10.));
  Alcotest.(check bool) "srtt not inflated by the retransmit" true
    (Cc.Vegas.srtt v < 0.2)

let suite =
  [
    Alcotest.test_case "converges without loss" `Slow
      test_converges_without_loss;
    Alcotest.test_case "standing queue vs ground truth" `Slow
      test_standing_queue_ground_truth;
    Alcotest.test_case "base RTT accuracy" `Slow test_base_rtt_accuracy;
    Alcotest.test_case "rto floor" `Quick test_rto_floor;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "recovers from a designed loss" `Slow
      test_recovers_from_loss;
  ]

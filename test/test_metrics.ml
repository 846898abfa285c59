(* Paper metrics on synthetic series. *)

let series pts =
  let ts = Engine.Timeseries.create () in
  List.iter (fun (t, v) -> Engine.Timeseries.add ts ~time:t v) pts;
  ts

let test_stabilization_basic () =
  (* Steady loss 1%, spike to 20% at t=10, back under 1.5% at t=14. *)
  let pts =
    List.init 40 (fun i ->
        let t = float_of_int i in
        let v = if t >= 10. && t < 14. then 0.2 else 0.01 in
        (t, v))
  in
  match
    Slowcc.Metrics.stabilization ~loss_series:(series pts) ~t_event:10.
      ~steady_loss:0.01 ~rtt:0.05
  with
  | Some s ->
    Alcotest.(check (float 1e-9)) "time" 4. s.Slowcc.Metrics.time_seconds;
    Alcotest.(check (float 1e-9)) "rtts" 80. s.Slowcc.Metrics.time_rtts;
    (* Mean over [10, 14) is 0.2; cost = 80 x 0.2 = 16. *)
    Alcotest.(check (float 1e-6)) "cost" 16. s.Slowcc.Metrics.cost
  | None -> Alcotest.fail "expected stabilization"

let test_stabilization_no_spike () =
  let pts = List.init 20 (fun i -> (float_of_int i, 0.01)) in
  Alcotest.(check bool) "no spike -> None" true
    (Slowcc.Metrics.stabilization ~loss_series:(series pts) ~t_event:10.
       ~steady_loss:0.01 ~rtt:0.05
    = None)

let test_stabilization_never_settles () =
  let pts =
    List.init 20 (fun i ->
        let t = float_of_int i in
        (t, if t >= 10. then 0.5 else 0.01))
  in
  match
    Slowcc.Metrics.stabilization ~loss_series:(series pts) ~t_event:10.
      ~steady_loss:0.01 ~rtt:0.05
  with
  | Some s ->
    (* Charged to the end of the series. *)
    Alcotest.(check (float 1e-9)) "whole tail" 9. s.Slowcc.Metrics.time_seconds
  | None -> Alcotest.fail "expected Some (charged tail)"

let test_fair_convergence () =
  (* Flow 2 ramps linearly; fairness window (delta = 0.1) entered when
     x2/(x1+x2) >= 0.45. *)
  let r1 = series (List.init 20 (fun i -> (float_of_int i, 10.))) in
  let r2 = series (List.init 20 (fun i -> (float_of_int i, float_of_int i))) in
  match
    Slowcc.Metrics.fair_convergence ~rate1:r1 ~rate2:r2 ~t_start:0. ~delta:0.1
  with
  | Some t ->
    (* x2 = t: need t/(10+t) >= 0.45 -> t >= 8.18 -> first sample at 9. *)
    Alcotest.(check (float 1e-9)) "time" 9. t
  | None -> Alcotest.fail "expected convergence"

let test_fair_convergence_never () =
  let r1 = series (List.init 10 (fun i -> (float_of_int i, 10.))) in
  let r2 = series (List.init 10 (fun i -> (float_of_int i, 1.))) in
  Alcotest.(check bool) "never" true
    (Slowcc.Metrics.fair_convergence ~rate1:r1 ~rate2:r2 ~t_start:0.
       ~delta:0.1
    = None)

let test_f_k () =
  (* 10 Mbps link, 20 RTTs of 50 ms = 1 s window; 0.75 MB delivered = 60%. *)
  let f =
    Slowcc.Metrics.f_k ~bytes_at_event:0. ~bytes_after:750000. ~k:20 ~rtt:0.05
      ~bandwidth:10e6
  in
  Alcotest.(check (float 1e-9)) "f(20)" 0.6 f

let test_smoothness () =
  let ts = series [ (0., 1000.); (1., 3000.); (2., 1500.) ] in
  Alcotest.(check (float 1e-9)) "ratio" 3. (Slowcc.Metrics.smoothness ts)

let test_validation () =
  Alcotest.check_raises "bad fk" (Invalid_argument "Metrics.f_k") (fun () ->
      ignore
        (Slowcc.Metrics.f_k ~bytes_at_event:0. ~bytes_after:0. ~k:0 ~rtt:0.05
           ~bandwidth:1e6))

let suite =
  [
    Alcotest.test_case "stabilization basic" `Quick test_stabilization_basic;
    Alcotest.test_case "stabilization no spike" `Quick
      test_stabilization_no_spike;
    Alcotest.test_case "stabilization never settles" `Quick
      test_stabilization_never_settles;
    Alcotest.test_case "fair convergence" `Quick test_fair_convergence;
    Alcotest.test_case "fair convergence never" `Quick
      test_fair_convergence_never;
    Alcotest.test_case "f(k)" `Quick test_f_k;
    Alcotest.test_case "smoothness" `Quick test_smoothness;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

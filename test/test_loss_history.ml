(* TFRC loss-interval history (WALI). *)

(* Generate loss events separated by the given packet counts; each event is
   spaced well beyond one RTT so no coalescing occurs.  The (seq, clock)
   state is explicit so successive feeds continue the same stream. *)
type feed_state = { mutable seq : int; mutable now : float }

let new_stream () = { seq = 0; now = 0. }

let feed_intervals ?(state = new_stream ()) h ~rtt lengths =
  List.iter
    (fun len ->
      state.seq <- state.seq + len;
      state.now <- state.now +. (10. *. rtt);
      ignore (Cc.Loss_history.record_loss h ~seq:state.seq ~now:state.now ~rtt))
    lengths

let test_no_loss_rate_zero () =
  let h = Cc.Loss_history.create ~k:8 in
  Cc.Loss_history.note_progress h ~seq:100;
  Alcotest.(check (float 0.)) "no events" 0. (Cc.Loss_history.loss_event_rate h)

let test_single_event_needs_interval () =
  let h = Cc.Loss_history.create ~k:8 in
  ignore (Cc.Loss_history.record_loss h ~seq:10 ~now:1. ~rtt:0.05);
  (* One event but no closed interval yet: rate undefined -> 0. *)
  Alcotest.(check (float 0.)) "one event" 0. (Cc.Loss_history.loss_event_rate h);
  Alcotest.(check int) "counted" 1 (Cc.Loss_history.num_loss_events h)

let test_uniform_intervals () =
  let h = Cc.Loss_history.create ~k:8 in
  feed_intervals h ~rtt:0.05 [ 100; 100; 100; 100; 100; 100; 100; 100; 100 ];
  Cc.Loss_history.note_progress h ~seq:810;
  let p = Cc.Loss_history.loss_event_rate h in
  Alcotest.(check (float 1e-9)) "p = 1/interval" 0.01 p

let test_coalescing_within_rtt () =
  let h = Cc.Loss_history.create ~k:8 in
  let rtt = 0.05 in
  ignore (Cc.Loss_history.record_loss h ~seq:10 ~now:1.0 ~rtt);
  (* Losses 10..13 in the same RTT are one event. *)
  Alcotest.(check bool) "same event" false
    (Cc.Loss_history.record_loss h ~seq:11 ~now:1.01 ~rtt);
  Alcotest.(check bool) "same event 2" false
    (Cc.Loss_history.record_loss h ~seq:13 ~now:1.04 ~rtt);
  Alcotest.(check int) "one event" 1 (Cc.Loss_history.num_loss_events h);
  (* A loss beyond one RTT starts a new event. *)
  Alcotest.(check bool) "new event" true
    (Cc.Loss_history.record_loss h ~seq:50 ~now:1.2 ~rtt);
  Alcotest.(check int) "two events" 2 (Cc.Loss_history.num_loss_events h)

let test_weights_recency () =
  (* Recent short intervals must dominate old long ones eventually. *)
  let h = Cc.Loss_history.create ~k:4 in
  let stream = new_stream () in
  feed_intervals ~state:stream h ~rtt:0.05 [ 1000; 1000; 1000; 1000; 1000 ];
  let p_good = Cc.Loss_history.loss_event_rate h in
  feed_intervals ~state:stream h ~rtt:0.05 [ 10; 10; 10; 10; 10 ];
  let p_bad = Cc.Loss_history.loss_event_rate h in
  Alcotest.(check bool) "rate worsened" true (p_bad > 10. *. p_good)

let test_k_limits_memory () =
  (* With k = 2, two fresh intervals erase the past completely. *)
  let h = Cc.Loss_history.create ~k:2 in
  let stream = new_stream () in
  feed_intervals ~state:stream h ~rtt:0.05 [ 1000; 1000; 1000 ];
  feed_intervals ~state:stream h ~rtt:0.05 [ 10; 10; 10 ];
  let p = Cc.Loss_history.loss_event_rate h in
  Alcotest.(check (float 0.02)) "only recent intervals" 0.1 p

let test_open_interval_lowers_rate () =
  let h = Cc.Loss_history.create ~k:8 in
  feed_intervals h ~rtt:0.05 [ 10; 10; 10; 10 ];
  let p_before = Cc.Loss_history.loss_event_rate h in
  (* A long loss-free run: the open interval grows and p must fall. *)
  let last_seq = 10 + 10 + 10 + 10 in
  Cc.Loss_history.note_progress h ~seq:(last_seq + 500);
  let p_after = Cc.Loss_history.loss_event_rate h in
  Alcotest.(check bool) "p fell" true (p_after < p_before)

let test_seed_first_interval () =
  let h = Cc.Loss_history.create ~k:8 in
  ignore (Cc.Loss_history.record_loss h ~seq:5 ~now:1. ~rtt:0.05);
  Cc.Loss_history.seed_first_interval h 200.;
  Cc.Loss_history.note_progress h ~seq:6;
  let p = Cc.Loss_history.loss_event_rate h in
  Alcotest.(check (float 1e-9)) "seeded" (1. /. 200.) p

let test_seed_requires_event () =
  let h = Cc.Loss_history.create ~k:8 in
  Alcotest.check_raises "no event"
    (Invalid_argument "Loss_history.seed_first_interval: no loss event yet")
    (fun () -> Cc.Loss_history.seed_first_interval h 100.)

let test_validation () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Loss_history.create: k >= 1 required") (fun () ->
      ignore (Cc.Loss_history.create ~k:0))

let prop_rate_in_unit_interval =
  QCheck2.Test.make ~name:"loss event rate lies in [0, 1]" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (int_range 1 500))
    (fun intervals ->
      let h = Cc.Loss_history.create ~k:8 in
      feed_intervals h ~rtt:0.05 intervals;
      let p = Cc.Loss_history.loss_event_rate h in
      p >= 0. && p <= 1.)

let suite =
  [
    Alcotest.test_case "no loss" `Quick test_no_loss_rate_zero;
    Alcotest.test_case "single event" `Quick test_single_event_needs_interval;
    Alcotest.test_case "uniform intervals" `Quick test_uniform_intervals;
    Alcotest.test_case "coalescing within rtt" `Quick test_coalescing_within_rtt;
    Alcotest.test_case "recency weighting" `Quick test_weights_recency;
    Alcotest.test_case "k bounds memory" `Quick test_k_limits_memory;
    Alcotest.test_case "open interval counts" `Quick
      test_open_interval_lowers_rate;
    Alcotest.test_case "seed first interval" `Quick test_seed_first_interval;
    Alcotest.test_case "seed requires event" `Quick test_seed_requires_event;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_rate_in_unit_interval;
  ]

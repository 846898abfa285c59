(* Scheduler semantics: ordering, cancellation, periodic events. *)

let check_float = Alcotest.(check (float 1e-9))

let test_run_order () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  Engine.Sim.at sim 2. (fun () -> log := "b" :: !log);
  Engine.Sim.at sim 1. (fun () -> log := "a" :: !log);
  Engine.Sim.at sim 3. (fun () -> log := "c" :: !log);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_now_advances () =
  let sim = Engine.Sim.create () in
  let seen = ref [] in
  Engine.Sim.at sim 1.5 (fun () -> seen := Engine.Sim.now sim :: !seen);
  Engine.Sim.after sim 0.5 (fun () -> seen := Engine.Sim.now sim :: !seen);
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "times" [ 0.5; 1.5 ] (List.rev !seen)

let test_past_rejected () =
  let sim = Engine.Sim.create () in
  Engine.Sim.at sim 1. (fun () ->
      try
        Engine.Sim.at sim 0.5 (fun () -> ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ());
  Engine.Sim.run sim

let test_until () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  Engine.Sim.at sim 10. (fun () -> fired := true);
  Engine.Sim.run ~until:5. sim;
  Alcotest.(check bool) "not fired" false !fired;
  check_float "clock at horizon" 5. (Engine.Sim.now sim)

let test_every () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim ~interval:1. ~stop:5.5 (fun () -> incr count);
  Engine.Sim.run sim;
  Alcotest.(check int) "five ticks" 5 !count

let test_every_bad_interval () =
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Sim.every: non-positive interval") (fun () ->
      Engine.Sim.every sim ~interval:0. (fun () -> ()))

let test_stop () =
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  Engine.Sim.every sim ~interval:1. (fun () ->
      incr count;
      if !count = 3 then Engine.Sim.stop sim);
  Engine.Sim.run sim;
  Alcotest.(check int) "stopped after 3" 3 !count

let test_nested_scheduling () =
  let sim = Engine.Sim.create () in
  let depth = ref 0 in
  let rec nest n =
    if n > 0 then
      Engine.Sim.after sim 0.1 (fun () ->
          incr depth;
          nest (n - 1))
  in
  nest 10;
  Engine.Sim.run sim;
  Alcotest.(check int) "all nested events ran" 10 !depth;
  check_float "clock" 1.0 (Engine.Sim.now sim);
  Alcotest.(check int) "processed" 10 (Engine.Sim.events_processed sim)

let test_resume_after_until () =
  (* Regression: run ~until must not consume the first event beyond the
     horizon; a resumed run must still fire it. *)
  let sim = Engine.Sim.create () in
  let fired = ref false in
  Engine.Sim.at sim 2. (fun () -> fired := true);
  Engine.Sim.run ~until:1. sim;
  Alcotest.(check bool) "not yet" false !fired;
  Engine.Sim.run ~until:3. sim;
  Alcotest.(check bool) "fired on resume" true !fired

let test_every_no_drift () =
  (* Regression: ticks must land exactly on base +. k *. interval.  The old
     accumulated form (next <- next +. interval) drifts by ~1e-8 over 1e6
     ticks of 1e-3, which the exact float equality below would catch. *)
  let sim = Engine.Sim.create () in
  let interval = 1e-3 in
  let ticks = 1_000_000 in
  let k = ref 0 in
  let exact = ref true in
  Engine.Sim.every sim ~interval ~stop:(float_of_int ticks *. interval)
    (fun () ->
      incr k;
      if Engine.Sim.now sim <> float_of_int !k *. interval then exact := false);
  Engine.Sim.run sim;
  Alcotest.(check bool) "every tick on the exact grid" true !exact;
  Alcotest.(check int) "tick count" ticks !k

let test_same_time_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.Sim.at sim 1. (fun () -> log := i :: !log)
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let suite =
  [
    Alcotest.test_case "run order" `Quick test_run_order;
    Alcotest.test_case "clock advances" `Quick test_now_advances;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_rejected;
    Alcotest.test_case "run until horizon" `Quick test_until;
    Alcotest.test_case "every" `Quick test_every;
    Alcotest.test_case "every rejects bad interval" `Quick test_every_bad_interval;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "every stays on grid over 1e6 ticks" `Slow
      test_every_no_drift;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "resume after until" `Quick test_resume_after_until;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
  ]

(* The token-bucket pacer: emission spacing, idle/kick, live rate
   changes, a pinned emission trace, and the progress guarantee that
   fixed the sub-float-resolution re-arm loop. *)

type fixture = {
  sim : Engine.Sim.t;
  pacer : Cc.Pacing.t;
  times : float list ref;  (** emission instants, reverse order *)
  limit : int ref;  (** emit declines once this many packets went out *)
}

let mk ?(limit = max_int) () =
  let sim = Engine.Sim.create () in
  let times = ref [] in
  let limit = ref limit in
  let count = ref 0 in
  let emit () =
    if !count < !limit then begin
      incr count;
      times := Engine.Sim.now sim :: !times;
      true
    end
    else false
  in
  let pacer = Cc.Pacing.create ~sim ~emit in
  { sim; pacer; times; limit }

let gaps times =
  match List.rev times with
  | [] | [ _ ] -> []
  | first :: rest ->
    let _, acc =
      List.fold_left (fun (prev, acc) t -> (t, (t -. prev) :: acc)) (first, [])
        rest
    in
    List.rev acc

let test_rate_spacing () =
  let f = mk () in
  Cc.Pacing.set_rate_pps f.pacer 100.;
  Cc.Pacing.start f.pacer;
  Engine.Sim.run ~until:0.995 f.sim;
  let n = Cc.Pacing.sends f.pacer in
  Alcotest.(check bool) (Printf.sprintf "%d sends in 1 s at 100 pps" n) true
    (n >= 99 && n <= 101);
  List.iter
    (fun g -> Alcotest.(check (float 1e-9)) "10 ms spacing" 0.01 g)
    (gaps !(f.times))

let test_idle_until_kick () =
  let f = mk ~limit:3 () in
  Cc.Pacing.set_rate_pps f.pacer 1000.;
  Cc.Pacing.start f.pacer;
  Engine.Sim.run ~until:1. f.sim;
  Alcotest.(check int) "emits until transport declines" 3
    (Cc.Pacing.sends f.pacer);
  Alcotest.(check bool) "idle after decline" true (Cc.Pacing.idle f.pacer);
  (* More data shows up: only [kick] wakes the pacer. *)
  f.limit := 5;
  Engine.Sim.run ~until:2. f.sim;
  Alcotest.(check int) "still asleep without a kick" 3
    (Cc.Pacing.sends f.pacer);
  Engine.Sim.at f.sim 2.5 (fun () -> Cc.Pacing.kick f.pacer);
  Engine.Sim.run ~until:3. f.sim;
  Alcotest.(check int) "kick resumes emission" 5 (Cc.Pacing.sends f.pacer)

let test_set_rate_rearms () =
  let f = mk () in
  Cc.Pacing.set_rate_pps f.pacer 100.;
  Cc.Pacing.start f.pacer;
  (* Double the rate halfway: ~50 + ~100 emissions over the second. *)
  Engine.Sim.at f.sim 0.5 (fun () -> Cc.Pacing.set_rate_pps f.pacer 200.);
  Engine.Sim.run ~until:0.995 f.sim;
  let n = Cc.Pacing.sends f.pacer in
  Alcotest.(check bool) (Printf.sprintf "%d sends across rate change" n) true
    (n >= 148 && n <= 152)

let test_rate_zero_disarms () =
  let f = mk () in
  Cc.Pacing.set_rate_pps f.pacer 100.;
  Cc.Pacing.start f.pacer;
  Engine.Sim.at f.sim 0.5 (fun () -> Cc.Pacing.set_rate_pps f.pacer 0.);
  Engine.Sim.run ~until:2. f.sim;
  let n = Cc.Pacing.sends f.pacer in
  Alcotest.(check bool) "stops near the cut" true (n >= 49 && n <= 52);
  Alcotest.(check bool) "timer disarmed" true (Cc.Pacing.idle f.pacer)

let test_stop_silences () =
  let f = mk () in
  Cc.Pacing.set_rate_pps f.pacer 100.;
  Cc.Pacing.start f.pacer;
  Engine.Sim.at f.sim 0.25 (fun () -> Cc.Pacing.stop f.pacer);
  Engine.Sim.run ~until:1. f.sim;
  Alcotest.(check bool) "no sends after stop" true
    (Cc.Pacing.sends f.pacer <= 26)

let run_trace () =
  let f = mk () in
  Cc.Pacing.set_rate_pps f.pacer 237.;
  Cc.Pacing.start f.pacer;
  Engine.Sim.at f.sim 0.3 (fun () -> Cc.Pacing.set_rate_pps f.pacer 41.);
  Engine.Sim.at f.sim 0.7 (fun () -> Cc.Pacing.set_rate_pps f.pacer 512.);
  Engine.Sim.run ~until:1. f.sim;
  List.rev !(f.times)

let test_scheduler_identity () =
  (* The emission instants, bit for bit, recorded when [Sim] could still
     run on a binary heap; the heap and the calendar queue both produced
     them.  Disarm/re-arm across calendar bucket boundaries included (the
     rate changes re-derive a pending wake-up in place). *)
  let instants = run_trace () in
  Alcotest.(check int) "emission count" 242 (List.length instants);
  let text =
    String.concat "" (List.map (fun t -> Printf.sprintf "%h\n" t) instants)
  in
  Alcotest.(check string)
    "emission instants digest" "d56af10e9bfa6514e0ba1e7923520cd6"
    (Digest.to_hex (Digest.string text))

let test_progress_at_float_resolution () =
  (* Regression: with tokens fractionally below 1, the wake-up delay
     [(1 - tokens) / rate] can be smaller than the float resolution at
     the current clock, so arming the timer for [now + delay] re-fires
     it at the same instant with nothing accrued — an infinite
     zero-advance loop.  The pacer must forgive sub-resolution deficits
     and emit instead of spinning. *)
  let f = mk ~limit:0 () in
  Cc.Pacing.set_rate_pps f.pacer 1e18;
  Engine.Sim.at f.sim 1.0 (fun () ->
      f.limit := 500;
      Cc.Pacing.start f.pacer);
  Engine.Sim.run ~until:2. f.sim;
  Alcotest.(check int) "all packets emitted" 500 (Cc.Pacing.sends f.pacer);
  Alcotest.(check bool) "then idle" true (Cc.Pacing.idle f.pacer)

let suite =
  [
    Alcotest.test_case "rate spacing" `Quick test_rate_spacing;
    Alcotest.test_case "idle until kick" `Quick test_idle_until_kick;
    Alcotest.test_case "set_rate re-arms pending wakeup" `Quick
      test_set_rate_rearms;
    Alcotest.test_case "rate zero disarms" `Quick test_rate_zero_disarms;
    Alcotest.test_case "stop silences" `Quick test_stop_silences;
    Alcotest.test_case "heap/calendar identity" `Quick test_scheduler_identity;
    Alcotest.test_case "progress at float resolution" `Quick
      test_progress_at_float_resolution;
  ]

(* The window engine: one n-slot engine against n one-slot engines
   (collision-heavy parameters, SACK and bounded transfers), and RTO
   wheel semantics. *)

module Mf = Slowcc.Manyflow

let small n = { (Mf.default_params ~n) with Mf.duration = 2.; warmup = 0. }

let check_none what = function
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

(* n = 64 puts the bottleneck at 16000 * 64 = 2^10 * 10^3 bits/s, so
   1000-byte packets serialize in exactly 2^-7 s: RTO deadlines land on
   the same dyadic timestamps as deliveries about once per 3k events.
   This is the regression input that caught a wheel that preserved
   firing times but not same-instant FIFO positions. *)
let test_equiv_dyadic_collisions () =
  check_none "calendar" (Mf.check_equiv (small 64))

let test_equiv_across_queue_kinds () =
  List.iter
    (fun queue ->
      check_none "queue kind"
        (Mf.check_equiv { (small 12) with Mf.queue; stagger = 0.5 }))
    [ Netsim.Dumbbell.Red; Netsim.Dumbbell.Red_ecn; Netsim.Dumbbell.Droptail ]

(* A handful of the fuzzer's own randomized instances, pinned as
   regressions (dyadic staggers, mixed queue kinds and gammas). *)
let test_equiv_fuzz_seeds () =
  List.iter
    (fun seed ->
      check_none
        (Printf.sprintf "fuzz seed %d" seed)
        (Mf.fuzz_check ~quick:true seed))
    [ 1; 2; 3; 4; 5 ]

(* [Manyflow] builds only the default configuration.  SACK and bounded
   transfers get the same n-slot vs one-slot comparison here, on a
   dumbbell lossy enough to exercise recovery, with dyadic start times
   that collide with the 8 ms serialization grid. *)
let equiv_with ~n cfg =
  let run build =
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed:7 in
    let db =
      Netsim.Dumbbell.create ~sim ~rng
        {
          (Netsim.Dumbbell.default_config ~bandwidth:1e6) with
          Netsim.Dumbbell.rtt = 0.04;
          queue = Netsim.Dumbbell.Droptail;
        }
    in
    let src, dst = Netsim.Dumbbell.add_host_pair db in
    for _ = 1 to n do
      ignore (Netsim.Dumbbell.fresh_flow db)
    done;
    let completed = ref 0 in
    let cfg =
      { cfg with Cc.Window_cc.on_complete = Some (fun _ -> incr completed) }
    in
    let flows = build ~sim ~src ~dst cfg in
    Array.iteri
      (fun i f ->
        Engine.Sim.at sim (0.01 +. (0.125 *. float_of_int i)) f.Cc.Flow.start)
      flows;
    Engine.Sim.run ~until:4. sim;
    let rtx =
      Array.fold_left
        (fun acc f -> acc + (f.Cc.Flow.stats ()).Cc.Flow.rtx_pkts)
        0 flows
    in
    (Mf.end_state_trace ~sim ~links:(Netsim.Dumbbell.links db) flows, !completed, rtx)
  in
  let shared =
    run (fun ~sim ~src ~dst cfg ->
        let eng = Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n cfg in
        Array.init n (Cc.Flow_soa.flow eng))
  in
  let per_flow =
    run (fun ~sim ~src ~dst cfg ->
        Array.init n (fun i ->
            Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:i ~n:1 cfg) 0))
  in
  let trace, completed, rtx = shared in
  let trace', completed', _ = per_flow in
  Alcotest.(check string) "end state" trace trace';
  Alcotest.(check int) "completions" completed completed';
  (completed, rtx)

let test_equiv_sack_and_bounded () =
  let base =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  let _, rtx = equiv_with ~n:8 { base with Cc.Window_cc.sack = true } in
  Alcotest.(check bool) "SACK recovery ran" true (rtx > 0);
  let completed, _ =
    equiv_with ~n:8 { base with Cc.Window_cc.total_pkts = Some 40 }
  in
  Alcotest.(check bool) "transfers completed" true (completed > 0)

(* Sender counters freeze on [stop]: the wheel must not fire RTOs for a
   stopped flow (lazy cancellation), and late acks are ignored. *)
let test_stop_freezes_senders () =
  (* Short stagger so every flow has started before the stop at 0.7 s. *)
  let p = { (small 8) with Mf.stagger = 0.1 } in
  let b = Mf.build_soa p in
  Engine.Sim.run ~until:0.7 b.Mf.sim;
  for i = 0 to 7 do
    Cc.Flow_soa.stop b.Mf.eng i
  done;
  let sent = Array.init 8 (fun i -> Cc.Flow_soa.pkts_sent b.Mf.eng i) in
  Alcotest.(check bool)
    "ran long enough to send" true
    (Array.exists (fun s -> s > 0) sent);
  Engine.Sim.run ~until:p.Mf.duration b.Mf.sim;
  for i = 0 to 7 do
    Alcotest.(check int)
      (Printf.sprintf "flow %d sent no packets after stop" i)
      sent.(i)
      (Cc.Flow_soa.pkts_sent b.Mf.eng i)
  done

(* The [Flow.t] closure view must agree with the direct accessors. *)
let test_flow_view_consistent () =
  let p = small 4 in
  let b = Mf.build_soa p in
  Engine.Sim.run ~until:p.Mf.duration b.Mf.sim;
  for i = 0 to 3 do
    let f = Cc.Flow_soa.flow b.Mf.eng i in
    Alcotest.(check int) "id" i f.Cc.Flow.id;
    let s = f.Cc.Flow.stats () in
    Alcotest.(check int) "sent" (Cc.Flow_soa.pkts_sent b.Mf.eng i)
      s.Cc.Flow.sent_pkts;
    Alcotest.(check int) "timeouts" (Cc.Flow_soa.timeouts b.Mf.eng i)
      s.Cc.Flow.timeouts;
    Alcotest.(check (float 0.)) "delivered bytes"
      (Cc.Flow_soa.bytes_delivered b.Mf.eng i)
      s.Cc.Flow.delivered_bytes
  done

let test_create_validation () =
  let sim = Engine.Sim.create () in
  let src = Netsim.Node.create ~id:0 and dst = Netsim.Node.create ~id:1 in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Flow_soa.create: n >= 1 required") (fun () ->
      ignore (Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n:0 cfg));
  Alcotest.check_raises "negative base"
    (Invalid_argument "Flow_soa.create: base >= 0 required") (fun () ->
      ignore (Cc.Flow_soa.create ~sim ~src ~dst ~base:(-1) ~n:1 cfg));
  (* RTO wheel keys hold the flow index in 20 bits. *)
  Alcotest.check_raises "n > 2^20"
    (Invalid_argument "Flow_soa.create: n <= 2^20 required") (fun () ->
      ignore (Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n:((1 lsl 20) + 1) cfg))

(* Lazy re-arming strands stale wheel entries; the sweep in the engine
   must keep the total bounded by 2 * live + 64 whatever the deadline
   churn.  Checked mid-run (several probe points) and at the
   end of a collision-heavy instance. *)
let test_wheel_size_bounded () =
  let p = { (small 64) with Mf.duration = 4. } in
  let b = Mf.build_soa p in
  let bound_ok () =
    let size = Cc.Flow_soa.wheel_size b.Mf.eng in
    let tracked = Cc.Flow_soa.wheel_tracked b.Mf.eng in
    if size > (2 * tracked) + 64 then
      Alcotest.failf "wheel size %d exceeds 2*%d + 64" size tracked
  in
  for k = 1 to 8 do
    Engine.Sim.run ~until:(0.5 *. float_of_int k) b.Mf.sim;
    bound_ok ()
  done;
  Alcotest.(check bool)
    "wheel saw traffic" true
    (Cc.Flow_soa.wheel_tracked b.Mf.eng > 0)

(* Per-flow footprint of a 10,000-slot engine and its node
   registrations, by live-word delta around [create]: 8 float slots
   (64 B) and 13 32-bit int slots (52 B), with one dispatch entry per
   node for the whole engine. *)
let test_state_bytes_per_flow () =
  let n = 10_000 in
  let sim = Engine.Sim.create () in
  let src = Netsim.Node.create ~id:0 and dst = Netsim.Node.create ~id:1 in
  let cfg =
    Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
  in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let eng = Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n cfg in
  let after = live () in
  Alcotest.(check int) "engine kept live" n (Cc.Flow_soa.n eng);
  let per_flow =
    float_of_int ((after - before) * (Sys.word_size / 8)) /. float_of_int n
  in
  if per_flow > 120. then
    Alcotest.failf "%.1f B per flow, budget 120 B" per_flow

(* Int slots are 32 bits: the largest 32-bit sequence number reads back
   exactly (here through the sink's SACK block), and one past it raises
   instead of wrapping to a negative seq. *)
let test_slot_overflow_raises () =
  let sim = Engine.Sim.create () in
  let src = Netsim.Node.create ~id:0 and dst = Netsim.Node.create ~id:1 in
  let link =
    Netsim.Link.make ~sim ~bandwidth:1e9 ~delay:0.
      ~queue:(Netsim.Droptail.make ~capacity:10)
  in
  Netsim.Link.connect link (Netsim.Node.receive src);
  Netsim.Node.set_default_route dst link;
  let cfg =
    {
      (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)) with
      Cc.Window_cc.sack = true;
    }
  in
  ignore (Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n:1 cfg);
  let sacks = ref [] in
  Netsim.Node.attach src ~flow:0 (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Netsim.Packet.Ack { sack; _ } -> sacks := sack :: !sacks
      | _ -> ());
  let deliver seq =
    Netsim.Node.receive dst
      (Netsim.Packet.make ~size:1000 ~seq ~payload:Netsim.Packet.Plain ~flow:0
         ~src:0 ~dst:1)
  in
  let top = Int32.to_int Int32.max_int in
  Alcotest.check_raises "2^31 does not fit"
    (Invalid_argument "Flow_soa: 2147483648 does not fit a 32-bit slot")
    (fun () -> deliver (top + 1));
  deliver top;
  Engine.Sim.run sim;
  Alcotest.(check (list (list (pair int int))))
    "largest 32-bit seq reads back" [ [ (top, top + 1) ] ] !sacks

let suite =
  [
    Alcotest.test_case "equiv at n=64 (dyadic collisions, calendar)" `Quick
      test_equiv_dyadic_collisions;
    Alcotest.test_case "equiv across queue kinds" `Quick
      test_equiv_across_queue_kinds;
    Alcotest.test_case "equiv on fuzz seeds" `Quick test_equiv_fuzz_seeds;
    Alcotest.test_case "equiv with SACK and bounded transfers" `Quick
      test_equiv_sack_and_bounded;
    Alcotest.test_case "stop freezes senders" `Quick test_stop_freezes_senders;
    Alcotest.test_case "Flow.t view consistent" `Quick test_flow_view_consistent;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "wheel size bounded by live entries" `Quick
      test_wheel_size_bounded;
    Alcotest.test_case "state bytes per flow" `Quick test_state_bytes_per_flow;
    Alcotest.test_case "slot value outside 32 bits raises" `Quick
      test_slot_overflow_raises;
  ]

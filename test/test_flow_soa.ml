(* Struct-of-arrays many-flow engine: digest equivalence with the
   per-object senders (both schedulers, collision-heavy parameters), RTO
   wheel semantics, and ack batching. *)

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
  check_none "calendar" (Mf.check_equiv ~sched:Engine.Scheduler.Calendar (small 64))

let test_equiv_heap_sched () =
  check_none "heap" (Mf.check_equiv ~sched:Engine.Scheduler.Heap (small 64))

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

(* Both schedulers must agree on the SoA engine itself, not just each
   scheduler's SoA against its own per-object twin. *)
let test_soa_digest_sched_independent () =
  let p = small 32 in
  Alcotest.(check string)
    "calendar = heap"
    (Mf.digest_soa ~sched:Engine.Scheduler.Calendar p)
    (Mf.digest_soa ~sched:Engine.Scheduler.Heap p)

(* Ack batching coalesces same-instant acks per flow.  On a dumbbell a
   flow's data packets serialize at distinct times, so no two deliveries
   of one flow share an instant and batching is digest-safe: identical
   end state with it on or off. *)
let test_ack_batching_digest_safe () =
  let p = small 16 in
  Alcotest.(check string)
    "batching preserves the digest"
    (Mf.digest_soa { p with Mf.ack_batching = true })
    (Mf.digest_soa p)

let test_build_object_rejects_batching () =
  Alcotest.check_raises "object engine has no batching"
    (Invalid_argument "Manyflow.build_object: ack batching is SoA-only")
    (fun () ->
      ignore (Mf.build_object { (small 2) with Mf.ack_batching = true }))

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
    Cc.Flow_soa.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
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

(* Lazy re-arming strands stale wheel entries; the sweep in the SoA
   engine must keep the total bounded by 2 * live + 64 whatever the
   deadline churn.  Checked mid-run (several probe points) and at the
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

let suite =
  [
    Alcotest.test_case "equiv at n=64 (dyadic collisions, calendar)" `Quick
      test_equiv_dyadic_collisions;
    Alcotest.test_case "equiv at n=64 (heap)" `Quick test_equiv_heap_sched;
    Alcotest.test_case "equiv across queue kinds" `Quick
      test_equiv_across_queue_kinds;
    Alcotest.test_case "equiv on fuzz seeds" `Quick test_equiv_fuzz_seeds;
    Alcotest.test_case "SoA digest scheduler-independent" `Quick
      test_soa_digest_sched_independent;
    Alcotest.test_case "ack batching digest-safe on dumbbell" `Quick
      test_ack_batching_digest_safe;
    Alcotest.test_case "object engine rejects batching" `Quick
      test_build_object_rejects_batching;
    Alcotest.test_case "stop freezes senders" `Quick test_stop_freezes_senders;
    Alcotest.test_case "Flow.t view consistent" `Quick test_flow_view_consistent;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "wheel size bounded by live entries" `Quick
      test_wheel_size_bounded;
  ]

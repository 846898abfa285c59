(* The audit layer: flag machinery, pooled-shell lifetime checking
   (double release, use-after-release, dirty reuse), drop-site and
   discard-site release regressions, and link conservation under a real
   workload. *)

module Audit = Engine.Audit
module Packet = Netsim.Packet

(* Every test leaves the global switches off. *)
let with_audit ~lifetime ~invariants f = Audit.with_flags ~lifetime ~invariants f

let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Audit.Violation" name
  | exception Audit.Violation _ -> ()

let fresh_ack () =
  Packet.alloc_ack ~size:40 ~flow:1 ~src:2 ~dst:3 ~cum_seq:7
    ~sack:[ (9, 11) ]

(* --- flag machinery ------------------------------------------------ *)

let test_flags_default_off () =
  Alcotest.(check bool) "lifetime off" false (Audit.lifetime_on ());
  Alcotest.(check bool) "invariants off" false (Audit.invariants_on ())

let test_apply_spec () =
  Audit.apply_spec "all";
  Alcotest.(check bool) "all->lifetime" true (Audit.lifetime_on ());
  Alcotest.(check bool) "all->invariants" true (Audit.invariants_on ());
  Audit.apply_spec "off";
  Alcotest.(check bool) "off" false
    (Audit.lifetime_on () || Audit.invariants_on ());
  Audit.apply_spec "lifetime";
  Alcotest.(check (pair bool bool))
    "subset" (true, false)
    (Audit.lifetime_on (), Audit.invariants_on ());
  Audit.apply_spec " invariants , lifetime ";
  Alcotest.(check (pair bool bool))
    "both tokens, spaces" (true, true)
    (Audit.lifetime_on (), Audit.invariants_on ());
  Audit.apply_spec "0";
  (* Unknown tokens warn but neither raise nor flip switches. *)
  Audit.apply_spec "bogus,invariants";
  Alcotest.(check (pair bool bool))
    "unknown token ignored" (false, true)
    (Audit.lifetime_on (), Audit.invariants_on ());
  Audit.disable_all ()

let test_with_flags_restores () =
  Audit.set_lifetime true;
  with_audit ~lifetime:false ~invariants:true (fun () ->
      Alcotest.(check (pair bool bool))
        "inside" (false, true)
        (Audit.lifetime_on (), Audit.invariants_on ()));
  Alcotest.(check (pair bool bool))
    "restored" (true, false)
    (Audit.lifetime_on (), Audit.invariants_on ());
  (* Exception-safe restore. *)
  (try
     with_audit ~lifetime:false ~invariants:false (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Audit.lifetime_on ());
  Audit.disable_all ()

let test_violation_counter () =
  Audit.reset_violations ();
  expect_violation "fail" (fun () -> Audit.fail "synthetic %d" 1);
  expect_violation "fail again" (fun () -> Audit.fail "synthetic %d" 2);
  Alcotest.(check int) "two violations counted" 2 (Audit.violation_count ());
  Audit.reset_violations ();
  Alcotest.(check int) "reset" 0 (Audit.violation_count ())

(* --- pooled-shell lifetime ----------------------------------------- *)

let test_double_release_detected () =
  with_audit ~lifetime:true ~invariants:false (fun () ->
      let p = fresh_ack () in
      Packet.release p;
      expect_violation "double release" (fun () -> Packet.release p))

let test_double_release_noop_when_off () =
  let p = fresh_ack () in
  Packet.release p;
  (* Historical contract: without auditing a double release is a no-op. *)
  Packet.release p

let test_use_after_release_detected () =
  with_audit ~lifetime:true ~invariants:false (fun () ->
      let p = fresh_ack () in
      Packet.check_live p;
      Packet.release p;
      expect_violation "use after release" (fun () -> Packet.check_live p))

let test_dirty_reuse_is_flagged () =
  with_audit ~lifetime:true ~invariants:false (fun () ->
      let p = fresh_ack () in
      Packet.release p;
      (* Simulate the bug the checker exists for: a stale owner
         resurrects the shell without going through an allocator, so the
         release-time poison is still in place. *)
      p.Packet.pooled <- true;
      expect_violation "poisoned seq" (fun () -> Packet.check_live p))

let test_clean_reuse_resets_everything () =
  with_audit ~lifetime:true ~invariants:false (fun () ->
      let a = fresh_ack () in
      Packet.release a;
      (* The freelist hands the same physical shell back... *)
      let b =
        Packet.alloc_ack ~size:40 ~flow:5 ~src:6 ~dst:7 ~cum_seq:0
          ~sack:[]
      in
      Alcotest.(check bool) "same shell recycled" true (a == b);
      (* ...with every poisoned field rewritten. *)
      Packet.check_live b;
      Alcotest.(check int) "seq reset" 0 b.Packet.seq;
      Alcotest.(check bool) "ecn reset" false b.Packet.ecn;
      (match b.Packet.payload with
      | Packet.Ack { cum_seq; sack } ->
        Alcotest.(check int) "cum_seq reset" 0 cum_seq;
        Alcotest.(check bool) "sack reset" true (sack = [])
      | _ -> Alcotest.fail "expected Ack payload");
      Packet.release b)

let test_cross_payload_reuse () =
  with_audit ~lifetime:true ~invariants:false (fun () ->
      let a = fresh_ack () in
      Packet.release a;
      (* An ack shell reused as TFRC feedback must not leak the Ack
         payload or the poison. *)
      let fb =
        Packet.alloc_tfrc_fb ~size:40 ~flow:9 ~src:1 ~dst:2
          {
            Packet.loss_event_rate = 0.01;
            recv_rate = 1e5;
            timestamp_echo = 2.5;
            delay_echo = 0.;
            new_loss = true;
          }
      in
      Alcotest.(check bool) "same shell recycled" true (a == fb);
      Packet.check_live fb;
      (match fb.Packet.payload with
      | Packet.Tfrc_fb f ->
        Alcotest.(check (float 0.)) "payload rewritten" 0.01
          f.Packet.loss_event_rate
      | _ -> Alcotest.fail "expected Tfrc_fb payload");
      Packet.release fb)

let test_pooling_switch () =
  let saved = Packet.pooling () in
  Fun.protect
    ~finally:(fun () -> Packet.set_pooling saved)
    (fun () ->
      Packet.set_pooling false;
      let a = fresh_ack () in
      Alcotest.(check bool) "unpooled shell" false a.Packet.pooled;
      Packet.release a;
      let b = fresh_ack () in
      Alcotest.(check bool) "no recycling when off" true (a != b);
      Packet.set_pooling true;
      let c = fresh_ack () in
      Alcotest.(check bool) "pooled again" true c.Packet.pooled;
      Packet.release c)

(* --- release sites -------------------------------------------------- *)

(* Regression: a packet dropped at the link queue is the link's to
   release.  Before the fix, dropped pooled shells leaked to the GC and
   the freelist drained under reverse-path congestion. *)
let test_drop_site_releases () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.make ~sim ~bandwidth:8000. ~delay:0.001
      ~queue:(Netsim.Droptail.make ~capacity:1)
  in
  Netsim.Link.connect link (fun pkt -> Packet.release pkt);
  let dropped = ref [] in
  Netsim.Link.on_drop link (fun pkt -> dropped := pkt :: !dropped);
  (* 1000-byte packets serialize in 1 s: the first occupies the
     transmitter, the second the 1-slot queue, the third must drop. *)
  let send () =
    Netsim.Link.send link
      (Packet.alloc_ack ~size:1000 ~flow:0 ~src:0 ~dst:1
         ~cum_seq:0 ~sack:[])
  in
  send ();
  send ();
  send ();
  (match !dropped with
  | [ p ] ->
    Alcotest.(check bool) "dropped shell released to the pool" false
      p.Packet.pooled
  | l -> Alcotest.failf "expected exactly 1 drop, got %d" (List.length l));
  Alcotest.(check int) "link counted the drop" 1 (Netsim.Link.drops link);
  Engine.Sim.run sim

let test_discard_site_releases () =
  (* A node with no route and no local handler discards — and owns —
     the packet. *)
  let node = Netsim.Node.create ~id:7 in
  let seen = ref [] in
  Netsim.Node.on_discard node (fun pkt -> seen := pkt :: !seen);
  let p =
    Packet.alloc_ack ~size:40 ~flow:3 ~src:0 ~dst:99 ~cum_seq:0
      ~sack:[]
  in
  Netsim.Node.receive node p;
  (match !seen with
  | [ q ] ->
    Alcotest.(check bool) "hook saw the packet" true (p == q);
    Alcotest.(check bool) "discarded shell released" false q.Packet.pooled
  | l -> Alcotest.failf "expected exactly 1 discard, got %d" (List.length l));
  Alcotest.(check int) "discard counted" 1 (Netsim.Node.discarded node)

(* --- invariants under a real workload ------------------------------ *)

(* A dumbbell run with both audit families on: per-packet conservation
   checks at every send/tx-done, the monotone-clock check at every event,
   and lifetime checks at every link entry.  Completing without
   [Violation] is the assertion. *)
let test_dumbbell_run_clean_under_audit () =
  with_audit ~lifetime:true ~invariants:true (fun () ->
      let sim = Engine.Sim.create () in
      let rng = Engine.Rng.create ~seed:5 in
      let config =
        {
          (Netsim.Dumbbell.default_config ~bandwidth:1e6) with
          Netsim.Dumbbell.queue = Netsim.Dumbbell.Droptail;
        }
      in
      let db = Netsim.Dumbbell.create ~sim ~rng config in
      let f1 = Slowcc.Protocol.spawn (Slowcc.Protocol.tcp ~gamma:2.) db in
      let f2 =
        Slowcc.Protocol.spawn ~reverse:true (Slowcc.Protocol.tfrc ~k:6 ()) db
      in
      Engine.Sim.at sim 0.0 f1.Cc.Flow.start;
      Engine.Sim.at sim 0.1 f2.Cc.Flow.start;
      Engine.Sim.run ~until:3. sim;
      List.iter Netsim.Link.check_conservation (Netsim.Dumbbell.links db);
      let s = f1.Cc.Flow.stats () in
      Alcotest.(check bool) "tcp flow made progress" true
        (s.Cc.Flow.sent_pkts > 10))

let test_conservation_accessors_consistent () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.make ~sim ~bandwidth:1e6 ~delay:0.01
      ~queue:(Netsim.Droptail.make ~capacity:10)
  in
  let delivered = ref 0 in
  Netsim.Link.connect link (fun pkt ->
      incr delivered;
      Packet.release pkt);
  for seq = 1 to 5 do
    Netsim.Link.send link (Packet.make ~seq ~flow:0 ~src:0 ~dst:1 ())
  done;
  Netsim.Link.check_conservation link;
  Engine.Sim.run sim;
  Netsim.Link.check_conservation link;
  Alcotest.(check int) "all delivered" 5 (Netsim.Link.delivered link);
  Alcotest.(check int) "receiver agrees" 5 !delivered;
  Alcotest.(check int) "nothing in flight" 0 (Netsim.Link.in_flight link);
  Alcotest.(check bool) "idle" false (Netsim.Link.busy link);
  Alcotest.(check bool) "counters expose delivered" true
    (List.mem_assoc "delivered" (Netsim.Link.counters link))

let suite =
  [
    Alcotest.test_case "flags default off" `Quick test_flags_default_off;
    Alcotest.test_case "apply_spec" `Quick test_apply_spec;
    Alcotest.test_case "with_flags restores" `Quick test_with_flags_restores;
    Alcotest.test_case "violation counter" `Quick test_violation_counter;
    Alcotest.test_case "double release detected" `Quick
      test_double_release_detected;
    Alcotest.test_case "double release no-op when off" `Quick
      test_double_release_noop_when_off;
    Alcotest.test_case "use-after-release detected" `Quick
      test_use_after_release_detected;
    Alcotest.test_case "dirty reuse flagged" `Quick test_dirty_reuse_is_flagged;
    Alcotest.test_case "clean reuse resets fields" `Quick
      test_clean_reuse_resets_everything;
    Alcotest.test_case "cross-payload reuse" `Quick test_cross_payload_reuse;
    Alcotest.test_case "pooling switch" `Quick test_pooling_switch;
    Alcotest.test_case "drop site releases shell" `Quick
      test_drop_site_releases;
    Alcotest.test_case "discard site releases shell" `Quick
      test_discard_site_releases;
    Alcotest.test_case "dumbbell clean under full audit" `Quick
      test_dumbbell_run_clean_under_audit;
    Alcotest.test_case "conservation accessors" `Quick
      test_conservation_accessors_consistent;
  ]

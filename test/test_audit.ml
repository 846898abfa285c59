(* The audit layer: flag machinery, the drop and discard sites' hooks
   and counters, and link conservation under a real workload. *)

module Audit = Engine.Audit
module Packet = Netsim.Packet

(* Every test leaves the global switch off. *)

let expect_violation name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Audit.Violation" name
  | exception Audit.Violation _ -> ()

(* --- flag machinery ------------------------------------------------ *)

let test_flags_default_off () =
  Alcotest.(check bool) "invariants off" false (Audit.invariants_on ())

let test_apply_spec () =
  Audit.apply_spec "all";
  Alcotest.(check bool) "all" true (Audit.invariants_on ());
  Audit.apply_spec "off";
  Alcotest.(check bool) "off" false (Audit.invariants_on ());
  Audit.apply_spec " invariants ";
  Alcotest.(check bool) "token, spaces" true (Audit.invariants_on ());
  Audit.apply_spec "0";
  (* Unknown tokens, [lifetime] among them, warn but neither raise nor
     flip the switch. *)
  Audit.apply_spec "lifetime";
  Alcotest.(check bool) "lifetime ignored" false (Audit.invariants_on ());
  Audit.apply_spec "bogus,lifetime,invariants";
  Alcotest.(check bool) "unknown tokens ignored" true (Audit.invariants_on ());
  Audit.disable_all ()

let test_with_flags_restores () =
  Audit.apply_spec "all";
  Audit.with_flags ~invariants:false (fun () ->
      Alcotest.(check bool) "inside" false (Audit.invariants_on ()));
  Alcotest.(check bool) "restored" true (Audit.invariants_on ());
  (* Exception-safe restore. *)
  (try Audit.with_flags ~invariants:false (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (Audit.invariants_on ());
  Audit.disable_all ()

let test_violation_counter () =
  Audit.reset_violations ();
  expect_violation "fail" (fun () -> Audit.fail "synthetic %d" 1);
  expect_violation "fail again" (fun () -> Audit.fail "synthetic %d" 2);
  Alcotest.(check int) "two violations counted" 2 (Audit.violation_count ());
  Audit.reset_violations ();
  Alcotest.(check int) "reset" 0 (Audit.violation_count ())

(* --- drop and discard sites ----------------------------------------- *)

(* A packet the link queue refuses is counted and shown to the drop
   hooks; nothing downstream sees it. *)
let test_drop_site () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.make ~sim ~bandwidth:8000. ~delay:0.001
      ~queue:(Netsim.Droptail.make ~capacity:1)
  in
  Netsim.Link.connect link ignore;
  let dropped = ref [] in
  Netsim.Link.on_drop link (fun pkt -> dropped := pkt :: !dropped);
  (* 1000-byte packets serialize in 1 s: the first occupies the
     transmitter, the second the 1-slot queue, the third must drop. *)
  let sent =
    List.init 3 (fun seq -> Packet.make ~size:1000 ~seq ~payload:Packet.Plain ~flow:0 ~src:0 ~dst:1)
  in
  List.iter (Netsim.Link.send link) sent;
  (match !dropped with
  | [ p ] ->
    Alcotest.(check bool) "hook saw the third packet" true
      (p == List.nth sent 2)
  | l -> Alcotest.failf "expected exactly 1 drop, got %d" (List.length l));
  Alcotest.(check int) "link counted the drop" 1 (Netsim.Link.drops link);
  Engine.Sim.run sim

let test_discard_site () =
  (* A node with no route and no local handler discards the packet. *)
  let node = Netsim.Node.create ~id:7 in
  let seen = ref [] in
  Netsim.Node.on_discard node (fun pkt -> seen := pkt :: !seen);
  let p =
    Packet.make ~size:40 ~seq:0 ~flow:3 ~src:0 ~dst:99
      ~payload:(Packet.Ack { cum_seq = 0; sack = [] })
  in
  Netsim.Node.receive node p;
  (match !seen with
  | [ q ] -> Alcotest.(check bool) "hook saw the packet" true (p == q)
  | l -> Alcotest.failf "expected exactly 1 discard, got %d" (List.length l));
  Alcotest.(check int) "discard counted" 1 (Netsim.Node.discarded node)

(* --- invariants under a real workload ------------------------------ *)

(* A dumbbell run with auditing on: per-packet conservation checks at
   every send/tx-done and the monotone-clock check at every event.
   Completing without [Violation] is the assertion. *)
let test_dumbbell_run_clean_under_audit () =
  Audit.with_flags ~invariants:true (fun () ->
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
  Netsim.Link.connect link (fun _ -> incr delivered);
  for seq = 1 to 5 do
    Netsim.Link.send link (Packet.make ~size:1000 ~seq ~payload:Packet.Plain ~flow:0 ~src:0 ~dst:1)
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
    Alcotest.test_case "drop site hooks and counter" `Quick test_drop_site;
    Alcotest.test_case "discard site hooks and counter" `Quick
      test_discard_site;
    Alcotest.test_case "dumbbell clean under full audit" `Quick
      test_dumbbell_run_clean_under_audit;
    Alcotest.test_case "conservation accessors" `Quick
      test_conservation_accessors_consistent;
  ]

(* Link transmission timing, pipelining, counters, drops. *)

let mk_pkt ?(size = 1000) seq =
  Netsim.Packet.make ~size ~seq ~payload:Netsim.Packet.Plain ~flow:0 ~src:0
    ~dst:1

let fixture ?(bandwidth = 8e6) ?(delay = 0.01) ?(capacity = 100) () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.make ~sim ~bandwidth ~delay
      ~queue:(Netsim.Droptail.make ~capacity)
  in
  (sim, link)

let test_tx_time () =
  let _, link = fixture ~bandwidth:8e6 () in
  (* 1000 bytes at 8 Mbps = 1 ms. *)
  Alcotest.(check (float 1e-12)) "serialization" 0.001
    (Netsim.Link.tx_time link ~bytes:1000)

let test_delivery_time () =
  let sim, link = fixture ~bandwidth:8e6 ~delay:0.01 () in
  let arrival = ref 0. in
  Netsim.Link.connect link (fun _ -> arrival := Engine.Sim.now sim);
  Netsim.Link.send link (mk_pkt 1);
  Engine.Sim.run sim;
  (* tx 1ms + prop 10ms. *)
  Alcotest.(check (float 1e-9)) "arrival" 0.011 !arrival

let test_pipelining () =
  let sim, link = fixture ~bandwidth:8e6 ~delay:0.1 () in
  let arrivals = ref [] in
  Netsim.Link.connect link (fun pkt ->
      arrivals := (pkt.Netsim.Packet.seq, Engine.Sim.now sim) :: !arrivals);
  Netsim.Link.send link (mk_pkt 1);
  Netsim.Link.send link (mk_pkt 2);
  Engine.Sim.run sim;
  (* Second packet rides the wire behind the first: arrivals 1 tx apart,
     not 1 tx + 1 prop. *)
  match List.rev !arrivals with
  | [ (1, t1); (2, t2) ] ->
    Alcotest.(check (float 1e-9)) "first" 0.101 t1;
    Alcotest.(check (float 1e-9)) "pipelined second" 0.102 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_ordering_preserved () =
  let sim, link = fixture () in
  let seqs = ref [] in
  Netsim.Link.connect link (fun pkt ->
      seqs := pkt.Netsim.Packet.seq :: !seqs);
  for i = 1 to 20 do
    Netsim.Link.send link (mk_pkt i)
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "fifo" (List.init 20 (fun i -> i + 1))
    (List.rev !seqs)

let test_counters_and_drops () =
  let sim, link = fixture ~capacity:5 () in
  Netsim.Link.connect link (fun _ -> ());
  let dropped = ref [] in
  Netsim.Link.on_drop link (fun pkt ->
      dropped := pkt.Netsim.Packet.seq :: !dropped);
  for i = 1 to 10 do
    Netsim.Link.send link (mk_pkt i)
  done;
  Engine.Sim.run sim;
  Alcotest.(check int) "arrivals" 10 (Netsim.Link.arrivals link);
  (* One packet goes straight to the transmitter; 5 queue; the rest drop. *)
  Alcotest.(check int) "drops" 4 (Netsim.Link.drops link);
  Alcotest.(check int) "departures" 6 (Netsim.Link.departures link);
  Alcotest.(check (float 0.)) "bytes out" 6000. (Netsim.Link.bytes_out link);
  Alcotest.(check int) "drop hook saw them" 4 (List.length !dropped)

let test_throughput_matches_bandwidth () =
  let sim, link = fixture ~bandwidth:1e6 ~delay:0. ~capacity:10000 () in
  Netsim.Link.connect link (fun _ -> ());
  (* Offer 2x the link rate for 10 seconds. *)
  Engine.Sim.every sim ~interval:0.004 ~stop:10. (fun () ->
      Netsim.Link.send link (mk_pkt 0));
  Engine.Sim.run ~until:10. sim;
  let mbps = Netsim.Link.bytes_out link *. 8. /. 10. /. 1e6 in
  Alcotest.(check bool) "saturated at capacity" true
    (mbps > 0.95 && mbps <= 1.001)

let test_validation () =
  let sim = Engine.Sim.create () in
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Link.make: bandwidth must be positive") (fun () ->
      ignore
        (Netsim.Link.make ~sim ~bandwidth:0. ~delay:0.
           ~queue:(Netsim.Droptail.make ~capacity:1)))

let test_counters_and_metrics () =
  (* A 2-packet queue fed 10 back-to-back packets drops the overflow; the
     link's and the queue discipline's counters agree, and the link was
     busy for most of the run. *)
  let sim, link = fixture ~bandwidth:8e6 ~delay:0.001 ~capacity:2 () in
  Netsim.Link.connect link ignore;
  for i = 1 to 10 do
    Netsim.Link.send link (mk_pkt i)
  done;
  Engine.Sim.run sim;
  let counters = Netsim.Link.counters link in
  let get k = List.assoc k counters in
  Alcotest.(check int) "arrivals" 10 (get "arrivals");
  Alcotest.(check int) "conservation" 10 (get "departures" + get "drops");
  Alcotest.(check bool) "drops happened" true (get "drops" > 0);
  Alcotest.(check int) "queue discipline counted enqueues"
    (get "departures") (get "droptail.enqueued");
  let util = Netsim.Link.utilization link ~elapsed:(Engine.Sim.now sim) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f sane" util)
    true
    (util > 0.5 && util <= 1.0)

let test_flow_stats_record () =
  (* The uniform per-flow stats record: a clean TCP run delivers what it
     sends (minus in-flight), retransmits nothing, and reports its srtt. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng
      (Netsim.Dumbbell.default_config ~bandwidth:50e6)
  in
  let flow = Slowcc.Protocol.spawn (Slowcc.Protocol.tcp ~gamma:2.) db in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:2. sim;
  let s = flow.Cc.Flow.stats () in
  Alcotest.(check bool) "sent packets" true (s.Cc.Flow.sent_pkts > 100);
  Alcotest.(check bool) "delivered most of what was sent" true
    (s.Cc.Flow.delivered_bytes > 0.9 *. s.Cc.Flow.sent_bytes);
  Alcotest.(check bool) "srtt near the 50 ms base RTT" true
    (s.Cc.Flow.stat_srtt > 0.04 && s.Cc.Flow.stat_srtt < 0.1);
  (* Every float field is a finite number. *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [
      ("sent_bytes", s.Cc.Flow.sent_bytes);
      ("delivered_bytes", s.Cc.Flow.delivered_bytes);
      ("stat_srtt", s.Cc.Flow.stat_srtt);
    ]

let test_queue_delay_exact () =
  (* 1000 bytes at 8 Mbps = 1 ms serialization.  Three back-to-back
     packets wait 0, 1 and 2 ms behind each other; FIFO order plus
     drop-at-enqueue makes the hook's samples exact, not estimates. *)
  let sim, link = fixture ~bandwidth:8e6 () in
  Netsim.Link.connect link ignore;
  let samples = ref [] in
  Netsim.Link.on_queue_delay link (fun pkt d ->
      samples := (pkt.Netsim.Packet.seq, d) :: !samples);
  for i = 1 to 3 do
    Netsim.Link.send link (mk_pkt i)
  done;
  Engine.Sim.run sim;
  (match List.rev !samples with
  | [ (1, d1); (2, d2); (3, d3) ] ->
    Alcotest.(check (float 1e-12)) "head of line" 0. d1;
    Alcotest.(check (float 1e-12)) "one serialization" 0.001 d2;
    Alcotest.(check (float 1e-12)) "two serializations" 0.002 d3
  | l -> Alcotest.failf "expected 3 samples, got %d" (List.length l));
  Netsim.Link.check_conservation link

let test_queue_delay_midstream_registration () =
  (* Packets already queued when the hook registers have no recorded
     enqueue time; they must be skipped, and every later packet must
     still line up with its own timestamp. *)
  let sim, link = fixture ~bandwidth:8e6 () in
  Netsim.Link.connect link ignore;
  Netsim.Link.send link (mk_pkt 1);
  Netsim.Link.send link (mk_pkt 2);
  (* seq 1 is on the wire, seq 2 is sitting in the queue. *)
  let samples = ref [] in
  Netsim.Link.on_queue_delay link (fun pkt d ->
      samples := (pkt.Netsim.Packet.seq, d) :: !samples);
  Netsim.Link.send link (mk_pkt 3);
  Engine.Sim.run sim;
  (match List.rev !samples with
  | [ (3, d3) ] ->
    (* Enqueued at t=0 behind 2 ms of backlog. *)
    Alcotest.(check (float 1e-12)) "post-registration packet" 0.002 d3
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l));
  Netsim.Link.check_conservation link

let test_queue_delay_hook_is_neutral () =
  (* The hook observes; it must not perturb the simulation.  Identical
     seeds with and without a registered hook deliver identical bytes. *)
  let run_once ~hook =
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed:11 in
    let db =
      Netsim.Dumbbell.create ~sim ~rng
        (Netsim.Dumbbell.default_config ~bandwidth:8e6)
    in
    if hook then
      Netsim.Link.on_queue_delay (Netsim.Dumbbell.bottleneck db) (fun _ _ ->
          ());
    let flow = Slowcc.Protocol.spawn (Slowcc.Protocol.tcp ~gamma:2.) db in
    flow.Cc.Flow.start ();
    Engine.Sim.run ~until:5. sim;
    (flow.Cc.Flow.bytes_delivered (), Engine.Sim.events_processed sim)
  in
  let bare = run_once ~hook:false and hooked = run_once ~hook:true in
  Alcotest.(check (float 0.)) "same delivery" (fst bare) (fst hooked);
  Alcotest.(check int) "same event count" (snd bare) (snd hooked)

let suite =
  [
    Alcotest.test_case "serialization time" `Quick test_tx_time;
    Alcotest.test_case "queue delay samples exact" `Quick
      test_queue_delay_exact;
    Alcotest.test_case "queue delay mid-stream registration" `Quick
      test_queue_delay_midstream_registration;
    Alcotest.test_case "queue delay hook is neutral" `Quick
      test_queue_delay_hook_is_neutral;
    Alcotest.test_case "counters and metrics registry" `Quick
      test_counters_and_metrics;
    Alcotest.test_case "per-flow stats record" `Quick test_flow_stats_record;
    Alcotest.test_case "delivery time" `Quick test_delivery_time;
    Alcotest.test_case "pipelined propagation" `Quick test_pipelining;
    Alcotest.test_case "ordering preserved" `Quick test_ordering_preserved;
    Alcotest.test_case "counters and drops" `Quick test_counters_and_drops;
    Alcotest.test_case "throughput at capacity" `Quick
      test_throughput_matches_bandwidth;
    Alcotest.test_case "validation" `Quick test_validation;
  ]

(* Deterministic loss-pattern wrappers. *)

let data seq =
  Netsim.Packet.make ~size:1000 ~seq ~payload:Netsim.Packet.Plain ~flow:0 ~src:0
    ~dst:1

let ack seq =
  Netsim.Packet.make ~size:40 ~seq ~flow:0 ~src:1 ~dst:0
    ~payload:(Netsim.Packet.Ack { cum_seq = seq; sack = [] })

let drops_of q pkts =
  List.filter_map
    (fun pkt ->
      match q.Netsim.Queue_intf.enqueue pkt with
      | Netsim.Queue_intf.Dropped -> Some pkt.Netsim.Packet.seq
      | _ ->
        ignore (q.Netsim.Queue_intf.dequeue ());
        None)
    pkts

let test_by_count_positions () =
  let q =
    Netsim.Loss_pattern.by_count ~pattern:[ 3; 5 ]
      (Netsim.Droptail.make ~capacity:10)
  in
  let dropped = drops_of q (List.init 20 data) in
  (* Drop the 3rd, then the 5th after that (8th), then 3rd after (11th)... *)
  Alcotest.(check (list int)) "positions" [ 2; 7; 10; 15; 18 ] dropped

let test_by_count_skips_acks () =
  let q =
    Netsim.Loss_pattern.by_count ~pattern:[ 2 ]
      (Netsim.Droptail.make ~capacity:10)
  in
  (* Interleave acks: they must neither drop nor advance the counter. *)
  let outcomes =
    List.map
      (fun pkt -> q.Netsim.Queue_intf.enqueue pkt)
      [ data 0; ack 100; data 1; ack 101; data 2; data 3 ]
  in
  let dropped =
    List.filteri (fun _ a -> a = Netsim.Queue_intf.Dropped) outcomes
  in
  Alcotest.(check int) "two drops among data only" 2 (List.length dropped)

let test_by_count_validation () =
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Loss_pattern.by_count: pattern must be positive counts")
    (fun () ->
      ignore
        (Netsim.Loss_pattern.by_count ~pattern:[]
           (Netsim.Droptail.make ~capacity:1)))

let test_by_phase () =
  let sim = Engine.Sim.create () in
  let q =
    Netsim.Loss_pattern.by_phase ~sim
      ~phases:[ (1.0, 2); (1.0, 0) ]
      (Netsim.Droptail.make ~capacity:100)
  in
  let dropped_in_phase = ref 0 and dropped_in_quiet = ref 0 in
  (* Phase 1 (t<1): every 2nd drops.  Phase 2 (1<=t<2): none. *)
  Engine.Sim.every sim ~interval:0.05 ~stop:1.99 (fun () ->
      let pkt = data 0 in
      match q.Netsim.Queue_intf.enqueue pkt with
      | Netsim.Queue_intf.Dropped ->
        if Engine.Sim.now sim < 1. then incr dropped_in_phase
        else incr dropped_in_quiet
      | _ -> ());
  Engine.Sim.run sim;
  Alcotest.(check bool) "drops during lossy phase" true (!dropped_in_phase > 5);
  Alcotest.(check int) "no drops during quiet phase" 0 !dropped_in_quiet

let test_by_phase_cycles () =
  let sim = Engine.Sim.create () in
  let q =
    Netsim.Loss_pattern.by_phase ~sim
      ~phases:[ (0.5, 1); (0.5, 0) ]
      (Netsim.Droptail.make ~capacity:100)
  in
  (* In the second lossy phase (t in [1.0, 1.5)) every packet drops. *)
  let dropped = ref 0 in
  Engine.Sim.at sim 1.2 (fun () ->
      match q.Netsim.Queue_intf.enqueue (data 0) with
      | Netsim.Queue_intf.Dropped -> incr dropped
      | _ -> ());
  Engine.Sim.run sim;
  Alcotest.(check int) "cycled back to lossy" 1 !dropped

let suite =
  [
    Alcotest.test_case "by_count positions" `Quick test_by_count_positions;
    Alcotest.test_case "by_count ignores acks" `Quick test_by_count_skips_acks;
    Alcotest.test_case "by_count validation" `Quick test_by_count_validation;
    Alcotest.test_case "by_phase phases" `Quick test_by_phase;
    Alcotest.test_case "by_phase cycles" `Quick test_by_phase_cycles;
  ]

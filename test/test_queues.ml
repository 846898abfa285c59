(* DropTail and RED queue disciplines. *)

let mk_pkt ?(size = 1000) seq =
  Netsim.Packet.make ~size ~seq ~payload:Netsim.Packet.Plain ~flow:0 ~src:0
    ~dst:1

let test_droptail_fifo () =
  let q = Netsim.Droptail.make ~capacity:3 in
  List.iter
    (fun seq ->
      match q.Netsim.Queue_intf.enqueue (mk_pkt seq) with
      | Netsim.Queue_intf.Enqueued -> ()
      | _ -> Alcotest.fail "unexpected drop")
    [ 1; 2; 3 ];
  let deq () =
    match q.Netsim.Queue_intf.dequeue () with
    | Some p -> p.Netsim.Packet.seq
    | None -> Alcotest.fail "empty"
  in
  Alcotest.(check int) "fifo 1" 1 (deq ());
  Alcotest.(check int) "fifo 2" 2 (deq ());
  Alcotest.(check int) "fifo 3" 3 (deq ())

let test_droptail_capacity () =
  let q = Netsim.Droptail.make ~capacity:2 in
  ignore (q.Netsim.Queue_intf.enqueue (mk_pkt 1));
  ignore (q.Netsim.Queue_intf.enqueue (mk_pkt 2));
  (match q.Netsim.Queue_intf.enqueue (mk_pkt 3) with
  | Netsim.Queue_intf.Dropped -> ()
  | _ -> Alcotest.fail "expected drop at capacity");
  Alcotest.(check int) "len" 2 (q.Netsim.Queue_intf.pkts ())

let test_droptail_bytes () =
  let q = Netsim.Droptail.make ~capacity:10 in
  ignore (q.Netsim.Queue_intf.enqueue (mk_pkt ~size:500 1));
  ignore (q.Netsim.Queue_intf.enqueue (mk_pkt ~size:700 2));
  Alcotest.(check int) "bytes" 1200 (q.Netsim.Queue_intf.bytes ());
  ignore (q.Netsim.Queue_intf.dequeue ());
  Alcotest.(check int) "bytes after deq" 700 (q.Netsim.Queue_intf.bytes ())

let test_droptail_rejects_zero_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Droptail.make: capacity must be positive") (fun () ->
      ignore (Netsim.Droptail.make ~capacity:0))

let red_fixture ?(ecn = false) ?(gentle = true) () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:11 in
  let params =
    {
      Netsim.Red.default_params with
      Netsim.Red.min_th = 5.;
      max_th = 15.;
      capacity = 40;
      ecn;
      gentle;
      mean_pkt_tx_time = 0.001;
    }
  in
  let q, avg = Netsim.Red.make_with_introspection ~sim ~rng params in
  (sim, q, avg)

let test_red_no_drops_below_min () =
  let _, q, _ = red_fixture () in
  (* Keep the instantaneous queue low: alternate enqueue/dequeue. *)
  for i = 1 to 100 do
    (match q.Netsim.Queue_intf.enqueue (mk_pkt i) with
    | Netsim.Queue_intf.Enqueued -> ()
    | _ -> Alcotest.fail "drop below min_th");
    ignore (q.Netsim.Queue_intf.dequeue ())
  done

let test_red_drops_under_overload () =
  let _, q, _ = red_fixture () in
  let drops = ref 0 in
  (* Enqueue far beyond capacity without draining. *)
  for i = 1 to 200 do
    match q.Netsim.Queue_intf.enqueue (mk_pkt i) with
    | Netsim.Queue_intf.Dropped -> incr drops
    | _ -> ()
  done;
  Alcotest.(check bool) "many drops" true (!drops > 100);
  Alcotest.(check bool) "capacity respected" true
    (q.Netsim.Queue_intf.pkts () <= 40)

let test_red_average_tracks () =
  let _, q, avg = red_fixture () in
  for i = 1 to 30 do
    ignore (q.Netsim.Queue_intf.enqueue (mk_pkt i))
  done;
  Alcotest.(check bool) "avg rose" true (avg () > 0.);
  Alcotest.(check bool) "avg lags instantaneous" true
    (avg () < float_of_int (q.Netsim.Queue_intf.pkts ()))

let test_red_idle_decay () =
  let sim, q, avg = red_fixture () in
  for i = 1 to 30 do
    ignore (q.Netsim.Queue_intf.enqueue (mk_pkt i))
  done;
  while q.Netsim.Queue_intf.dequeue () <> None do
    ()
  done;
  let before = avg () in
  (* Advance the clock by scheduling a far event, then trigger the decay
     with one arrival. *)
  Engine.Sim.at sim 10. (fun () ->
      ignore (q.Netsim.Queue_intf.enqueue (mk_pkt 31)));
  Engine.Sim.run sim;
  Alcotest.(check bool) "avg decayed toward zero" true (avg () < before /. 100.)

(* Hold the instantaneous queue near 10 (between min_th 5 and max_th 15)
   long enough for the slow EWMA to cross min_th, then collect verdicts. *)
let drive_red_to_marking q ~rounds ~f =
  for i = 1 to 10 do
    ignore (q.Netsim.Queue_intf.enqueue (mk_pkt i))
  done;
  for i = 1 to rounds do
    let pkt = mk_pkt (10 + i) in
    let verdict = q.Netsim.Queue_intf.enqueue pkt in
    f pkt verdict;
    ignore (q.Netsim.Queue_intf.dequeue ())
  done

let test_red_ecn_marks () =
  let _, q, _ = red_fixture ~ecn:true () in
  let marks = ref 0 and drops = ref 0 in
  drive_red_to_marking q ~rounds:5000 ~f:(fun _ verdict ->
      match verdict with
      | Netsim.Queue_intf.Marked -> incr marks
      | Netsim.Queue_intf.Dropped -> incr drops
      | Netsim.Queue_intf.Enqueued -> ());
  Alcotest.(check bool) "some marks" true (!marks > 0);
  Alcotest.(check int) "ecn marks instead of dropping" 0 !drops

let test_red_marked_packet_has_ecn_bit () =
  let _, q, _ = red_fixture ~ecn:true () in
  let found = ref false in
  drive_red_to_marking q ~rounds:5000 ~f:(fun pkt verdict ->
      match verdict with
      | Netsim.Queue_intf.Marked -> if pkt.Netsim.Packet.ecn then found := true
      | _ -> ());
  Alcotest.(check bool) "ecn bit set" true !found

let test_red_param_validation () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Red.make: need 0 < min_th < max_th") (fun () ->
      ignore
        (Netsim.Red.make ~sim ~rng
           { Netsim.Red.default_params with Netsim.Red.min_th = 10.; max_th = 5. }))

let prop_red_never_exceeds_capacity =
  QCheck2.Test.make ~name:"red queue never exceeds capacity" ~count:50
    QCheck2.Gen.(int_range 1 500)
    (fun n ->
      let _, q, _ = red_fixture () in
      let ok = ref true in
      for i = 1 to n do
        ignore (q.Netsim.Queue_intf.enqueue (mk_pkt i));
        if q.Netsim.Queue_intf.pkts () > 40 then ok := false
      done;
      !ok)

let test_pktq_growth_wrapped () =
  (* Drive the ring through growth while head is mid-array: interleaved
     add/take leaves head offset, then a burst forces the re-linearizing
     resize.  FIFO order must survive, across several growth doublings. *)
  let q = Netsim.Pktq.create () in
  let next_in = ref 0 and next_out = ref 0 in
  let add () =
    Netsim.Pktq.add q (mk_pkt !next_in);
    incr next_in
  in
  let take () =
    match Netsim.Pktq.take_opt q with
    | Some p ->
      Alcotest.(check int) "fifo order" !next_out p.Netsim.Packet.seq;
      incr next_out
    | None -> Alcotest.fail "unexpected empty"
  in
  for _ = 1 to 10 do
    add ()
  done;
  for _ = 1 to 7 do
    take ()
  done;
  (* head is now 7 in a 16-slot ring; this burst wraps and then grows. *)
  for _ = 1 to 200 do
    add ()
  done;
  while not (Netsim.Pktq.is_empty q) do
    take ()
  done;
  Alcotest.(check int) "drained everything" !next_in !next_out;
  match Netsim.Pktq.take_opt q with
  | None -> ()
  | Some _ -> Alcotest.fail "take on empty ring returned a packet"

let suite =
  [
    Alcotest.test_case "pktq growth with wrapped head" `Quick
      test_pktq_growth_wrapped;
    Alcotest.test_case "droptail fifo" `Quick test_droptail_fifo;
    Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
    Alcotest.test_case "droptail byte accounting" `Quick test_droptail_bytes;
    Alcotest.test_case "droptail rejects zero capacity" `Quick
      test_droptail_rejects_zero_capacity;
    Alcotest.test_case "red no drops below min_th" `Quick
      test_red_no_drops_below_min;
    Alcotest.test_case "red drops under overload" `Quick
      test_red_drops_under_overload;
    Alcotest.test_case "red average tracks occupancy" `Quick
      test_red_average_tracks;
    Alcotest.test_case "red idle decay" `Quick test_red_idle_decay;
    Alcotest.test_case "red ecn marks" `Quick test_red_ecn_marks;
    Alcotest.test_case "red sets ecn bit" `Quick test_red_marked_packet_has_ecn_bit;
    Alcotest.test_case "red param validation" `Quick test_red_param_validation;
    QCheck_alcotest.to_alcotest prop_red_never_exceeds_capacity;
  ]

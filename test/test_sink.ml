(* Cumulative-ack sink behavior. *)

let fixture () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create ~id:1 in
  (* Capture acks the sink sends back by registering the peer flow handler
     on the same node: inject routes by dst, so attach a fake route. *)
  let acks = ref [] in
  let sender = Netsim.Node.create ~id:0 in
  let link =
    Netsim.Link.make ~sim ~bandwidth:1e9 ~delay:0.
      ~queue:(Netsim.Droptail.make ~capacity:1000)
  in
  Netsim.Link.connect link (Netsim.Node.receive sender);
  Netsim.Node.set_default_route node link;
  Netsim.Node.attach sender ~flow:3 (fun pkt ->
      match pkt.Netsim.Packet.payload with
      | Netsim.Packet.Ack { cum_seq; sack = _ } ->
        acks := (cum_seq, pkt.Netsim.Packet.ecn) :: !acks
      | _ -> ());
  let sink = Cc.Sink.attach ~sim ~node ~flow:3 ~peer:0 in
  let send ?(ecn = false) seq =
    let pkt =
      Netsim.Packet.make ~size:1000 ~seq ~payload:Netsim.Packet.Plain ~flow:3
        ~src:0 ~dst:1
    in
    pkt.Netsim.Packet.ecn <- ecn;
    Netsim.Node.receive node pkt
  in
  (sim, sink, send, acks)

let run_and_acks sim acks =
  Engine.Sim.run sim;
  List.rev_map fst !acks

let test_in_order () =
  let sim, sink, send, acks = fixture () in
  List.iter send [ 0; 1; 2 ];
  Alcotest.(check (list int)) "cumulative" [ 1; 2; 3 ] (run_and_acks sim acks);
  Alcotest.(check int) "next expected" 3 (Cc.Sink.cumulative sink);
  Alcotest.(check int) "pkts" 3 (Cc.Sink.pkts_received sink)

let test_gap_dupacks () =
  let sim, _, send, acks = fixture () in
  List.iter send [ 0; 2; 3 ];
  (* Missing 1: acks are 1, then duplicate 1s. *)
  Alcotest.(check (list int)) "dupacks" [ 1; 1; 1 ] (run_and_acks sim acks)

let test_hole_filled () =
  let sim, sink, send, acks = fixture () in
  List.iter send [ 0; 2; 3; 1 ];
  (* Filling seq 1 jumps the cumulative ack to 4. *)
  Alcotest.(check (list int)) "fill" [ 1; 1; 1; 4 ] (run_and_acks sim acks);
  Alcotest.(check int) "cumulative" 4 (Cc.Sink.cumulative sink)

let test_bytes_counted () =
  let sim, sink, send, _ = fixture () in
  List.iter send [ 0; 1 ];
  Engine.Sim.run sim;
  Alcotest.(check (float 0.)) "bytes" 2000. (Cc.Sink.bytes_received sink)

let test_ecn_echoed () =
  let sim, _, send, acks = fixture () in
  send ~ecn:true 0;
  Engine.Sim.run sim;
  match !acks with
  | [ (_, ecn) ] -> Alcotest.(check bool) "ecn echoed" true ecn
  | _ -> Alcotest.fail "expected one ack"

let suite =
  [
    Alcotest.test_case "in-order acks" `Quick test_in_order;
    Alcotest.test_case "gap produces dupacks" `Quick test_gap_dupacks;
    Alcotest.test_case "hole fill jumps ack" `Quick test_hole_filled;
    Alcotest.test_case "bytes counted" `Quick test_bytes_counted;
    Alcotest.test_case "ecn echoed" `Quick test_ecn_echoed;
  ]

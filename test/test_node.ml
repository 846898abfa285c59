(* Node routing and agent dispatch. *)

let mk_pkt ~flow ~dst = Netsim.Packet.make ~flow ~src:0 ~dst ~sent_at:0. ()

let test_local_dispatch () =
  let node = Netsim.Node.create ~id:5 in
  let got = ref [] in
  Netsim.Node.attach node ~flow:7 (fun pkt ->
      got := pkt.Netsim.Packet.flow :: !got);
  Netsim.Node.receive node (mk_pkt ~flow:7 ~dst:5);
  Alcotest.(check (list int)) "dispatched" [ 7 ] !got

let test_unknown_flow_discarded () =
  let node = Netsim.Node.create ~id:5 in
  Netsim.Node.receive node (mk_pkt ~flow:9 ~dst:5);
  Alcotest.(check int) "discarded" 1 (Netsim.Node.discarded node)

let test_detach () =
  let node = Netsim.Node.create ~id:5 in
  Netsim.Node.attach node ~flow:7 (fun _ -> ());
  Netsim.Node.detach node ~flow:7;
  Netsim.Node.receive node (mk_pkt ~flow:7 ~dst:5);
  Alcotest.(check int) "discarded after detach" 1 (Netsim.Node.discarded node)

let link_fixture sim =
  Netsim.Link.make ~sim ~bandwidth:1e9 ~delay:0.001
    ~queue:(Netsim.Droptail.make ~capacity:100)

let test_routing () =
  let sim = Engine.Sim.create () in
  let node = Netsim.Node.create ~id:0 in
  let l1 = link_fixture sim and l2 = link_fixture sim in
  let via1 = ref 0 and via2 = ref 0 in
  Netsim.Link.connect l1 (fun _ -> incr via1);
  Netsim.Link.connect l2 (fun _ -> incr via2);
  Netsim.Node.add_route node ~dst:1 l1;
  Netsim.Node.set_default_route node l2;
  Netsim.Node.receive node (mk_pkt ~flow:0 ~dst:1);
  Netsim.Node.receive node (mk_pkt ~flow:0 ~dst:42);
  Engine.Sim.run sim;
  Alcotest.(check int) "explicit route" 1 !via1;
  Alcotest.(check int) "default route" 1 !via2

let test_no_route_discards () =
  let node = Netsim.Node.create ~id:0 in
  Netsim.Node.receive node (mk_pkt ~flow:0 ~dst:99);
  Alcotest.(check int) "discarded" 1 (Netsim.Node.discarded node)

(* Dense dispatch: small non-negative flow ids live in an array, huge or
   negative ids fall back to the hash table, and the two behave
   identically through attach/detach/reserve. *)
let sparse_flow = 1 lsl 21 (* beyond the dense table's id ceiling *)

let test_dense_and_sparse_dispatch () =
  let node = Netsim.Node.create ~id:5 in
  let got = ref [] in
  let record pkt = got := pkt.Netsim.Packet.flow :: !got in
  Netsim.Node.attach node ~flow:3 record;
  Netsim.Node.attach node ~flow:sparse_flow record;
  Netsim.Node.attach node ~flow:(-2) record;
  Netsim.Node.receive node (mk_pkt ~flow:3 ~dst:5);
  Netsim.Node.receive node (mk_pkt ~flow:sparse_flow ~dst:5);
  Netsim.Node.receive node (mk_pkt ~flow:(-2) ~dst:5);
  Alcotest.(check (list int))
    "all three paths dispatch"
    [ 3; sparse_flow; -2 ]
    (List.rev !got);
  Alcotest.(check int) "nothing discarded" 0 (Netsim.Node.discarded node)

let test_detach_both_paths () =
  let node = Netsim.Node.create ~id:5 in
  Netsim.Node.attach node ~flow:3 (fun _ -> Alcotest.fail "detached dense");
  Netsim.Node.attach node ~flow:sparse_flow (fun _ ->
      Alcotest.fail "detached sparse");
  Netsim.Node.detach node ~flow:3;
  Netsim.Node.detach node ~flow:sparse_flow;
  Netsim.Node.receive node (mk_pkt ~flow:3 ~dst:5);
  Netsim.Node.receive node (mk_pkt ~flow:sparse_flow ~dst:5);
  Alcotest.(check int) "both discarded" 2 (Netsim.Node.discarded node)

let test_attach_replaces () =
  let node = Netsim.Node.create ~id:5 in
  let hits = ref 0 in
  Netsim.Node.attach node ~flow:3 (fun _ -> Alcotest.fail "stale handler");
  Netsim.Node.attach node ~flow:3 (fun _ -> incr hits);
  Netsim.Node.receive node (mk_pkt ~flow:3 ~dst:5);
  Alcotest.(check int) "replacement handler ran" 1 !hits

let test_reserve_bulk_attach () =
  let node = Netsim.Node.create ~id:5 in
  let n = 10_000 in
  Netsim.Node.reserve node ~flows:n;
  let hits = Array.make n 0 in
  for f = 0 to n - 1 do
    Netsim.Node.attach node ~flow:f (fun pkt ->
        let i = pkt.Netsim.Packet.flow in
        hits.(i) <- hits.(i) + 1)
  done;
  for f = 0 to n - 1 do
    Netsim.Node.receive node (mk_pkt ~flow:f ~dst:5)
  done;
  Alcotest.(check bool)
    "every reserved flow dispatched exactly once" true
    (Array.for_all (fun c -> c = 1) hits);
  Alcotest.(check int) "no discards" 0 (Netsim.Node.discarded node)

let test_unattached_dense_id_discarded () =
  let node = Netsim.Node.create ~id:5 in
  Netsim.Node.reserve node ~flows:100;
  Netsim.Node.receive node (mk_pkt ~flow:50 ~dst:5);
  Alcotest.(check int)
    "reserved but unattached id discards" 1
    (Netsim.Node.discarded node)

(* [reserve] may grow the dense table past its id ceiling.  A flow
   attached on the sparse path before that must move into the table, or
   the receive path's range test finds an empty dense slot. *)
let test_reserve_adopts_sparse_agent () =
  let node = Netsim.Node.create ~id:5 in
  let flow = 1 lsl 20 in
  let hits = ref 0 in
  Netsim.Node.attach node ~flow (fun _ -> incr hits);
  Netsim.Node.receive node (mk_pkt ~flow ~dst:5);
  Netsim.Node.reserve node ~flows:(flow + 1);
  Netsim.Node.receive node (mk_pkt ~flow ~dst:5);
  Alcotest.(check int) "delivered before and after reserve" 2 !hits;
  Alcotest.(check int) "nothing discarded" 0 (Netsim.Node.discarded node);
  Netsim.Node.detach node ~flow;
  Netsim.Node.receive node (mk_pkt ~flow ~dst:5);
  Alcotest.(check int) "detach reaches the adopted slot" 1
    (Netsim.Node.discarded node)

let suite =
  [
    Alcotest.test_case "local dispatch" `Quick test_local_dispatch;
    Alcotest.test_case "dense and sparse dispatch" `Quick
      test_dense_and_sparse_dispatch;
    Alcotest.test_case "detach on both paths" `Quick test_detach_both_paths;
    Alcotest.test_case "attach replaces handler" `Quick test_attach_replaces;
    Alcotest.test_case "reserve + bulk attach" `Quick test_reserve_bulk_attach;
    Alcotest.test_case "reserve adopts sparse agents" `Quick
      test_reserve_adopts_sparse_agent;
    Alcotest.test_case "unattached dense id discarded" `Quick
      test_unattached_dense_id_discarded;
    Alcotest.test_case "unknown flow discarded" `Quick
      test_unknown_flow_discarded;
    Alcotest.test_case "detach" `Quick test_detach;
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "no route discards" `Quick test_no_route_discards;
  ]

(* Node routing and agent dispatch. *)

let mk_pkt ~flow ~dst =
  Netsim.Packet.make ~size:1000 ~seq:0 ~payload:Netsim.Packet.Plain ~flow ~src:0
    ~dst

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
  Netsim.Node.add_route node ~dst:3 l1;
  Netsim.Node.set_default_route node l2;
  (* 2 is a hole in the route table, 42 lies past it and -1 before it:
     all three take the default route. *)
  List.iter
    (fun dst -> Netsim.Node.receive node (mk_pkt ~flow:0 ~dst))
    [ 1; 3; 2; 42; -1 ];
  Engine.Sim.run sim;
  Alcotest.(check int) "explicit routes" 2 !via1;
  Alcotest.(check int) "default route" 3 !via2;
  Alcotest.check_raises "negative route id"
    (Invalid_argument "Node.add_route: negative dst") (fun () ->
      Netsim.Node.add_route node ~dst:(-1) l1)

let test_no_route_discards () =
  let node = Netsim.Node.create ~id:0 in
  Netsim.Node.receive node (mk_pkt ~flow:0 ~dst:99);
  Alcotest.(check int) "discarded" 1 (Netsim.Node.discarded node)

(* Range dispatch: one table entry per [attach], sorted by first id.
   "Dense" ids sit in a bulk range, "sparse" ones in one-id ranges
   anywhere on the int line, negative and huge included; both go through
   the same binary search. *)
let sparse_flow = 1 lsl 40

let test_dense_and_sparse_dispatch () =
  let node = Netsim.Node.create ~id:5 in
  let got = ref [] in
  let record pkt = got := pkt.Netsim.Packet.flow :: !got in
  Netsim.Node.attach node ~count:4 ~flow:2 record;
  Netsim.Node.attach node ~flow:sparse_flow record;
  Netsim.Node.attach node ~flow:(-2) record;
  Netsim.Node.attach node ~flow:max_int record;
  List.iter
    (fun flow -> Netsim.Node.receive node (mk_pkt ~flow ~dst:5))
    [ 3; sparse_flow; -2; max_int; 5 ];
  Alcotest.(check (list int))
    "small, huge and negative ids dispatch"
    [ 3; sparse_flow; -2; max_int; 5 ]
    (List.rev !got);
  Alcotest.(check int) "nothing discarded" 0 (Netsim.Node.discarded node)

(* Detaching one id of a bulk range leaves its neighbours attached; a
   one-id range goes entirely. *)
let test_detach_both_paths () =
  let node = Netsim.Node.create ~id:5 in
  let hits = ref [] in
  Netsim.Node.attach node ~count:5 ~flow:10 (fun pkt ->
      hits := pkt.Netsim.Packet.flow :: !hits);
  Netsim.Node.attach node ~flow:sparse_flow (fun _ ->
      Alcotest.fail "detached sparse");
  Netsim.Node.detach node ~flow:12;
  Netsim.Node.detach node ~flow:sparse_flow;
  List.iter
    (fun flow -> Netsim.Node.receive node (mk_pkt ~flow ~dst:5))
    [ 10; 11; 12; 13; 14; sparse_flow ];
  Alcotest.(check (list int)) "range survives around the hole"
    [ 10; 11; 13; 14 ] (List.rev !hits);
  Alcotest.(check int) "both detached ids discarded" 2
    (Netsim.Node.discarded node);
  (* The ends of a range detach too, and a second detach is a no-op. *)
  Netsim.Node.detach node ~flow:10;
  Netsim.Node.detach node ~flow:14;
  Netsim.Node.detach node ~flow:14;
  hits := [];
  List.iter
    (fun flow -> Netsim.Node.receive node (mk_pkt ~flow ~dst:5))
    [ 10; 11; 13; 14 ];
  Alcotest.(check (list int)) "inner ids remain" [ 11; 13 ] (List.rev !hits)

let test_attach_replaces () =
  let node = Netsim.Node.create ~id:5 in
  let hits = ref 0 in
  Netsim.Node.attach node ~flow:3 (fun _ -> Alcotest.fail "stale handler");
  Netsim.Node.attach node ~flow:3 (fun _ -> incr hits);
  Netsim.Node.attach node ~count:100 ~flow:1000 (fun _ ->
      Alcotest.fail "stale range handler");
  Netsim.Node.attach node ~count:100 ~flow:1000 (fun _ -> incr hits);
  Netsim.Node.receive node (mk_pkt ~flow:3 ~dst:5);
  Netsim.Node.receive node (mk_pkt ~flow:1050 ~dst:5);
  Alcotest.(check int) "replacement handlers ran" 2 !hits

(* Ranges stay disjoint: anything but an exact re-attach of a range that
   shares an id with it is refused, and the table is left as it was. *)
let test_partial_overlap_raises () =
  let node = Netsim.Node.create ~id:5 in
  let hits = ref 0 in
  Netsim.Node.attach node ~count:10 ~flow:100 (fun _ -> incr hits);
  List.iter
    (fun (count, flow) ->
      match Netsim.Node.attach node ~count ~flow ignore with
      | () -> Alcotest.failf "attach %d..%d accepted" flow (flow + count - 1)
      | exception Invalid_argument _ -> ())
    [ (1, 105); (10, 95); (10, 105); (20, 95); (9, 100); (11, 100) ];
  Alcotest.check_raises "count 0"
    (Invalid_argument "Node.attach: count >= 1 required") (fun () ->
      Netsim.Node.attach node ~count:0 ~flow:0 ignore);
  Alcotest.check_raises "past max_int"
    (Invalid_argument "Node.attach: flow id range overflows") (fun () ->
      Netsim.Node.attach node ~count:2 ~flow:max_int ignore);
  (* Neighbours that only touch the range are fine. *)
  Netsim.Node.attach node ~count:5 ~flow:95 ignore;
  Netsim.Node.attach node ~flow:110 ignore;
  for flow = 100 to 109 do
    Netsim.Node.receive node (mk_pkt ~flow ~dst:5)
  done;
  Alcotest.(check int) "original range intact" 10 !hits

let test_bulk_range_attach () =
  let node = Netsim.Node.create ~id:5 in
  let n = 10_000 in
  let hits = Array.make n 0 in
  Netsim.Node.attach node ~count:n ~flow:0 (fun pkt ->
      let i = pkt.Netsim.Packet.flow in
      hits.(i) <- hits.(i) + 1);
  for f = 0 to n - 1 do
    Netsim.Node.receive node (mk_pkt ~flow:f ~dst:5)
  done;
  Alcotest.(check bool)
    "every attached flow dispatched exactly once" true
    (Array.for_all (fun c -> c = 1) hits);
  Alcotest.(check int) "no discards" 0 (Netsim.Node.discarded node)

(* Ids just outside a range, and in the gap between two, discard. *)
let test_unattached_dense_id_discarded () =
  let node = Netsim.Node.create ~id:5 in
  Netsim.Node.attach node ~count:100 ~flow:0 (fun _ -> ());
  Netsim.Node.attach node ~count:10 ~flow:200 (fun _ -> ());
  List.iter
    (fun flow -> Netsim.Node.receive node (mk_pkt ~flow ~dst:5))
    [ -1; 100; 150; 199; 210 ];
  Alcotest.(check int) "ids next to a range discard" 5
    (Netsim.Node.discarded node)

let suite =
  [
    Alcotest.test_case "local dispatch" `Quick test_local_dispatch;
    Alcotest.test_case "dense and sparse dispatch" `Quick
      test_dense_and_sparse_dispatch;
    Alcotest.test_case "detach on both paths" `Quick test_detach_both_paths;
    Alcotest.test_case "attach replaces handler" `Quick test_attach_replaces;
    Alcotest.test_case "partial overlap raises" `Quick
      test_partial_overlap_raises;
    Alcotest.test_case "bulk range attach" `Quick test_bulk_range_attach;
    Alcotest.test_case "unattached dense id discarded" `Quick
      test_unattached_dense_id_discarded;
    Alcotest.test_case "unknown flow discarded" `Quick
      test_unknown_flow_discarded;
    Alcotest.test_case "detach" `Quick test_detach;
    Alcotest.test_case "routing" `Quick test_routing;
    Alcotest.test_case "no route discards" `Quick test_no_route_discards;
  ]

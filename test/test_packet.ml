(* Packet construction and classification. *)

(* Every field but the ECN mark is an argument; the mark starts clear. *)
let test_defaults () =
  let p =
    Netsim.Packet.make ~size:1000 ~seq:0 ~payload:Netsim.Packet.Plain ~flow:3
      ~src:1 ~dst:2
  in
  Alcotest.(check int) "size" 1000 p.Netsim.Packet.size;
  Alcotest.(check int) "seq" 0 p.Netsim.Packet.seq;
  Alcotest.(check int) "flow" 3 p.Netsim.Packet.flow;
  Alcotest.(check bool) "payload plain" true
    (p.Netsim.Packet.payload = Netsim.Packet.Plain);
  Alcotest.(check bool) "no ecn" false p.Netsim.Packet.ecn

let test_is_ack () =
  let mk payload =
    Netsim.Packet.make ~size:40 ~seq:0 ~flow:0 ~src:0 ~dst:1 ~payload
  in
  Alcotest.(check bool) "plain" false (Netsim.Packet.is_ack (mk Netsim.Packet.Plain));
  Alcotest.(check bool) "ack" true
    (Netsim.Packet.is_ack (mk (Netsim.Packet.Ack { cum_seq = 1; sack = [] })));
  Alcotest.(check bool) "rap ack" true
    (Netsim.Packet.is_ack (mk (Netsim.Packet.Rap_ack { cum_seq = 1 })));
  Alcotest.(check bool) "tfrc data" false
    (Netsim.Packet.is_ack
       (mk (Netsim.Packet.Tfrc_data { timestamp = 0.; rtt_estimate = 0. })));
  Alcotest.(check bool) "tfrc feedback" true
    (Netsim.Packet.is_ack
       (mk
          (Netsim.Packet.Tfrc_fb
             {
               Netsim.Packet.loss_event_rate = 0.;
               recv_rate = 0.;
               timestamp_echo = 0.;
               delay_echo = 0.;
               new_loss = false;
             })))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_pp () =
  let p =
    Netsim.Packet.make ~size:1000 ~seq:9 ~payload:Netsim.Packet.Plain ~flow:3
      ~src:1 ~dst:2
  in
  let s = Format.asprintf "%a" Netsim.Packet.pp p in
  Alcotest.(check bool) "mentions flow" true (contains_sub s "flow=3");
  Alcotest.(check bool) "mentions seq" true (contains_sub s "seq=9")

let suite =
  [
    Alcotest.test_case "defaults" `Quick test_defaults;
    Alcotest.test_case "is_ack" `Quick test_is_ack;
    Alcotest.test_case "pp" `Quick test_pp;
  ]

(* The rate-timer senders (RAP, TEAR, TFRC, CBR) pinned end to end: one
   fixed 40 s RED dumbbell whose end state must keep its exact bytes.
   The unit tests of each sender check properties; this pin catches any
   change to what they send, when, or what they count. *)

module P = Slowcc.Protocol

(* RAP(1/2), TEAR(8) and TFRC(6) forward, TFRC(256)+SC on the reverse
   path, and a CBR that starts, stops and restarts at a new rate. *)
let mixed_dumbbell () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:7 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng
      (Netsim.Dumbbell.default_config ~bandwidth:5e6)
  in
  let flows =
    [
      P.spawn (P.rap ~gamma:2.) db;
      P.spawn (P.tear ~rounds:8) db;
      P.spawn (P.tfrc ~k:6 ()) db;
      P.spawn ~reverse:true (P.tfrc ~conservative:true ~k:256 ()) db;
    ]
  in
  List.iteri
    (fun i (f : Cc.Flow.t) ->
      Engine.Sim.at sim (0.1 *. float_of_int i) f.Cc.Flow.start)
    flows;
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let cbr =
    Cc.Cbr.create ~sim ~src ~dst ~flow:(Netsim.Dumbbell.fresh_flow db)
      ~rate:1.5e6 ~pkt_size:1000
  in
  let cbr_flow = Cc.Cbr.flow cbr in
  Engine.Sim.at sim 10. cbr_flow.Cc.Flow.start;
  Engine.Sim.at sim 20. cbr_flow.Cc.Flow.stop;
  Engine.Sim.at sim 25. (fun () ->
      Cc.Cbr.set_rate cbr 3e6;
      cbr_flow.Cc.Flow.start ());
  Engine.Sim.run ~until:40. sim;
  let trace =
    Slowcc.Manyflow.end_state_trace ~sim ~links:(Netsim.Dumbbell.links db)
      (Array.of_list (flows @ [ cbr_flow ]))
  in
  trace ^ Printf.sprintf "events=%d\n" (Engine.Sim.events_processed sim)

let expected_md5 = "99dfd3a27c325d393a1bb80ba9d1eb7d"

let test_end_state_pinned () =
  let trace = mixed_dumbbell () in
  let md5 = Digest.to_hex (Digest.string trace) in
  if md5 <> expected_md5 then
    Alcotest.failf "end state moved (md5 %s, expected %s):\n%s" md5
      expected_md5 trace

let suite =
  [
    Alcotest.test_case "mixed dumbbell end state pinned" `Quick
      test_end_state_pinned;
  ]

(* Packet trace facility. *)

let fixture () =
  let sim = Engine.Sim.create () in
  let link =
    Netsim.Link.make ~sim ~bandwidth:8e6 ~delay:0.001
      ~queue:(Netsim.Droptail.make ~capacity:2)
  in
  Netsim.Link.connect link (fun _ -> ());
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  let trace = Netsim.Trace.attach ~sim ~out link in
  (sim, link, buf, out, trace)

let send link seq =
  Netsim.Link.send link
    (Netsim.Packet.make ~size:1000 ~seq ~payload:Netsim.Packet.Plain ~flow:7
       ~src:0 ~dst:1)

let test_departures_and_drops_logged () =
  let sim, link, buf, out, trace = fixture () in
  (* Capacity 2 + 1 in transmission: the 4th packet drops. *)
  for i = 1 to 4 do
    send link i
  done;
  Engine.Sim.run sim;
  Format.pp_print_flush out ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let count prefix =
    List.length
      (List.filter (fun l -> String.length l > 0 && l.[0] = prefix.[0]) lines)
  in
  Alcotest.(check int) "three departures" 3 (count "d");
  Alcotest.(check int) "one drop" 1 (count "x");
  Alcotest.(check int) "event counter" 4 (Netsim.Trace.events trace)

let test_line_format () =
  let sim, link, buf, out, _ = fixture () in
  send link 42;
  Engine.Sim.run sim;
  Format.pp_print_flush out ();
  let first_line = List.hd (String.split_on_char '\n' (Buffer.contents buf)) in
  (match String.split_on_char ' ' first_line with
  | [ "d"; _time; "7"; "42"; "1000" ] -> ()
  | _ -> Alcotest.failf "unexpected trace line %S" first_line)

let test_stop () =
  let sim, link, buf, out, trace = fixture () in
  Netsim.Trace.stop trace;
  send link 1;
  Engine.Sim.run sim;
  Format.pp_print_flush out ();
  Alcotest.(check int) "no events after stop" 0 (Buffer.length buf)

let suite =
  [
    Alcotest.test_case "departures and drops logged" `Quick
      test_departures_and_drops_logged;
    Alcotest.test_case "line format" `Quick test_line_format;
    Alcotest.test_case "stop" `Quick test_stop;
  ]

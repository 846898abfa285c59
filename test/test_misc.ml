(* Odds and ends: engine stress, Flow helpers, metric edge cases. *)

let test_heap_stress () =
  (* A million mixed operations stay fast and ordered. *)
  let h = Event_heap.create () in
  let rng = Engine.Rng.create ~seed:99 in
  for i = 1 to 500_000 do
    Event_heap.add h ~time:(Engine.Rng.float rng) i
  done;
  let last = ref neg_infinity in
  let ok = ref true in
  let rec drain () =
    match Event_heap.pop h with
    | None -> ()
    | Some (t, _) ->
      if t < !last then ok := false;
      last := t;
      drain ()
  in
  drain ();
  Alcotest.(check bool) "ordered under stress" true !ok

let test_sim_event_storm () =
  (* 100k self-rescheduling events complete and count correctly. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100_000 then Engine.Sim.after sim 1e-4 tick
  in
  Engine.Sim.at sim 0. tick;
  Engine.Sim.run sim;
  Alcotest.(check int) "all events ran" 100_000 !count;
  Alcotest.(check int) "processed counter" 100_000
    (Engine.Sim.events_processed sim)

let test_flow_throughput_helper () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth:10e6)
  in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  let cbr =
    Cc.Cbr.create ~sim ~src ~dst ~flow:flow_id ~rate:2e6 ~pkt_size:1000
  in
  let flow = Cc.Cbr.flow cbr in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:5. sim;
  let snapshot0 = flow.Cc.Flow.bytes_delivered () in
  Engine.Sim.run ~until:10. sim;
  let thr = Cc.Flow.throughput flow ~t0:5. ~t1:10. ~snapshot0 in
  (* 2 Mbps = 250 kB/s. *)
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f B/s" thr)
    true
    (Float.abs (thr -. 250_000.) < 10_000.)

let test_flow_throughput_validates_interval () =
  let dummy =
    {
      Cc.Flow.id = 0;
      protocol = "x";
      start = ignore;
      stop = ignore;
      pkts_sent = (fun () -> 0);
      bytes_sent = (fun () -> 0.);
      bytes_delivered = (fun () -> 0.);
      current_rate = (fun () -> 0.);
      srtt = (fun () -> 0.);
      stats =
        Cc.Flow.basic_stats
          ~pkts_sent:(fun () -> 0)
          ~bytes_sent:(fun () -> 0.)
          ~bytes_delivered:(fun () -> 0.)
          ~srtt:(fun () -> 0.);
    }
  in
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Flow.throughput: empty interval") (fun () ->
      ignore (Cc.Flow.throughput dummy ~t0:1. ~t1:1. ~snapshot0:0.))

let test_stabilization_threshold_floor () =
  (* With zero steady loss the 1.5x threshold would be zero; the floor
     keeps the metric usable. *)
  let ts = Engine.Timeseries.create () in
  List.iteri
    (fun i v -> Engine.Timeseries.add ts ~time:(float_of_int i) v)
    [ 0.; 0.; 0.2; 0.2; 0.; 0. ];
  match
    Slowcc.Metrics.stabilization ~loss_series:ts ~t_event:1. ~steady_loss:0.
      ~rtt:0.05
  with
  | Some s ->
    Alcotest.(check bool) "finite time" true (s.Slowcc.Metrics.time_seconds > 0.)
  | None -> Alcotest.fail "spike not detected with zero steady loss"

let test_protocol_name_roundtrip () =
  List.iter
    (fun (p, expected) ->
      Alcotest.(check string) expected expected (Slowcc.Protocol.name p))
    [
      (Slowcc.Protocol.tcp_sack ~gamma:2., "TCP-SACK(1/2)");
      (Slowcc.Protocol.tear ~rounds:8, "TEAR(8)");
      (Slowcc.Protocol.iiad ~gamma:4., "IIAD(1/4)");
    ]

let test_spawn_ca_start () =
  (* A CA-start flow grows additively: after 10 RTTs without loss the
     window is near iw + 10a, far below what slow-start would reach. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:1 in
  let db =
    Netsim.Dumbbell.create ~sim ~rng (Netsim.Dumbbell.default_config ~bandwidth:50e6)
  in
  let flow = Slowcc.Protocol.spawn ~ca_start:true (Slowcc.Protocol.tcp ~gamma:2.) db in
  flow.Cc.Flow.start ();
  Engine.Sim.run ~until:0.55 sim;
  (* ~10 RTTs: slow-start would deliver ~2^10 packets; CA delivers ~70. *)
  let pkts = flow.Cc.Flow.bytes_delivered () /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f pkts delivered (CA pace)" pkts)
    true
    (pkts > 20. && pkts < 200.)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let sample_table =
  Slowcc.Table.make ~id:"t1" ~title:"sample"
    ~columns:[ "a"; "b" ]
    ~notes:[ "first note"; "second note" ]
    [ [ "1"; "2" ] ]

let test_save_csv_nested_dir () =
  (* save_csv used to require the parent to exist; now it creates the
     whole chain. *)
  let dir = "tmp-misc/deeply/nested/dir" in
  let path = Slowcc.Table.save_csv ~dir sample_table in
  Alcotest.(check bool) "csv written" true (Sys.file_exists path);
  Alcotest.(check string) "strict csv body" "a,b\n1,2\n" (read_file path)

let test_save_csv_dir_is_file () =
  (* A path component that exists as a regular file must fail loudly, not
     with an opaque Sys_error from open_out. *)
  Slowcc.Table.ensure_dir "tmp-misc";
  let blocker = "tmp-misc/blocker" in
  let oc = open_out blocker in
  close_out oc;
  Alcotest.check_raises "clear error"
    (Invalid_argument
       "Table.ensure_dir: tmp-misc/blocker exists and is not a directory")
    (fun () -> ignore (Slowcc.Table.save_csv ~dir:blocker sample_table))

let test_save_csv_notes_sidecar () =
  (* Notes used to be embedded as "# ..." lines inside the CSV, corrupting
     strict parsers; they now live in a sidecar. *)
  let dir = "tmp-misc/sidecar" in
  let path = Slowcc.Table.save_csv ~dir sample_table in
  let body = read_file path in
  Alcotest.(check bool) "no comment lines in csv" false
    (String.exists (fun c -> c = '#') body);
  Alcotest.(check string) "sidecar holds the notes"
    "first note\nsecond note\n"
    (read_file (Filename.concat dir "t1.notes.txt"))

let suite =
  [
    Alcotest.test_case "heap stress" `Slow test_heap_stress;
    Alcotest.test_case "sim event storm" `Slow test_sim_event_storm;
    Alcotest.test_case "flow throughput helper" `Quick
      test_flow_throughput_helper;
    Alcotest.test_case "flow throughput validation" `Quick
      test_flow_throughput_validates_interval;
    Alcotest.test_case "stabilization zero-loss floor" `Quick
      test_stabilization_threshold_floor;
    Alcotest.test_case "protocol names" `Quick test_protocol_name_roundtrip;
    Alcotest.test_case "ca_start paces additively" `Quick test_spawn_ca_start;
    Alcotest.test_case "save_csv creates nested dirs" `Quick
      test_save_csv_nested_dir;
    Alcotest.test_case "save_csv rejects file-as-dir" `Quick
      test_save_csv_dir_is_file;
    Alcotest.test_case "save_csv notes go to sidecar" `Quick
      test_save_csv_notes_sidecar;
  ]

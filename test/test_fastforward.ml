(* Hybrid fluid/packet fast-forward: mode plumbing, steady-state
   detector, analytic models, re-seed round-trips, and the controller's
   behavior on the quick scenario suite (never frozen across a scheduled
   transient; skips real simulated time when steady). *)

let tcp = Slowcc.Protocol.tcp ~gamma:2.

(* Run [f] with the process-wide fast-forward default forced to [mode],
   restoring the previous default afterwards (other suites depend on
   ff-off). *)
let with_ff mode f =
  let saved = Engine.Fastforward.get_default () in
  Engine.Fastforward.set_default mode;
  Fun.protect ~finally:(fun () -> Engine.Fastforward.set_default saved) f

(* --- mode gate --- *)

let test_mode_parse () =
  let open Engine.Fastforward in
  List.iter
    (fun (s, m) -> Alcotest.(check bool) s true (of_string s = Some m))
    [ ("off", Off); ("0", Off); ("false", Off); ("on", On); ("1", On);
      ("true", On); ("ff", On); ("ON", On) ];
  Alcotest.(check bool) "garbage" true (of_string "fast" = None);
  Alcotest.(check string) "to_string off" "off" (to_string Off);
  Alcotest.(check string) "to_string on" "on" (to_string On)

let test_mode_gates_sim () =
  with_ff Engine.Fastforward.Off (fun () ->
      let sim = Engine.Sim.create () in
      Alcotest.(check bool) "default off" true
        (Engine.Sim.fastforward sim = Engine.Fastforward.Off);
      let sim_on = Engine.Sim.create ~fastforward:Engine.Fastforward.On () in
      Alcotest.(check bool) "explicit on" true
        (Engine.Sim.fastforward sim_on = Engine.Fastforward.On));
  with_ff Engine.Fastforward.On (fun () ->
      let sim = Engine.Sim.create () in
      Alcotest.(check bool) "default follows global" true
        (Engine.Sim.fastforward sim = Engine.Fastforward.On))

(* --- detector --- *)

let observe_n det n ~loss ~occupancy ~rate =
  for _ = 1 to n do
    Engine.Fastforward.Detector.observe det ~loss ~occupancy ~rate
  done

let test_detector_stable_window () =
  let open Engine.Fastforward.Detector in
  let det = create () in
  Alcotest.(check bool) "empty unstable" false (stable det);
  observe_n det (default_config.window - 1) ~loss:0.02 ~occupancy:12.
    ~rate:4e5;
  Alcotest.(check bool) "partial window unstable" false (stable det);
  observe_n det 1 ~loss:0.02 ~occupancy:12. ~rate:4e5;
  Alcotest.(check bool) "full flat window stable" true (stable det);
  Alcotest.(check (float 1e-9)) "mean loss" 0.02 (mean_loss det);
  Alcotest.(check (float 1e-9)) "mean occupancy" 12. (mean_occupancy det);
  reset det;
  Alcotest.(check int) "reset drops samples" 0 (samples det);
  Alcotest.(check bool) "reset unstable" false (stable det)

let test_detector_rate_band_blocks_growth () =
  (* Slow-start shape: zero loss, empty queue, delivered rate doubling
     every sample.  Loss and occupancy are trivially flat; the rate band
     must keep the detector from arming. *)
  let open Engine.Fastforward.Detector in
  let det = create () in
  let rate = ref 1e4 in
  for _ = 1 to 2 * default_config.window do
    observe det ~loss:0. ~occupancy:0. ~rate:!rate;
    Alcotest.(check bool) "growth never stable" false (stable det);
    rate := !rate *. 2.
  done;
  (* Once the rate flattens out, the same detector may arm. *)
  observe_n det default_config.window ~loss:0. ~occupancy:0. ~rate:!rate;
  Alcotest.(check bool) "flat rate stable" true (stable det)

let test_detector_loss_band () =
  let open Engine.Fastforward.Detector in
  let det = create () in
  observe_n det (default_config.window - 1) ~loss:0.02 ~occupancy:10.
    ~rate:4e5;
  (* A loss spike far outside the relative band breaks stability. *)
  observe det ~loss:0.5 ~occupancy:10. ~rate:4e5;
  Alcotest.(check bool) "loss spike unstable" false (stable det)

(* --- analytic sawtooth --- *)

let test_sawtooth_matches_closed_form () =
  (* AIMD(1, 1/2) steady state: average window = sqrt(3/(2p)). *)
  List.iter
    (fun p ->
      match
        Cc.Window_cc.sawtooth_model
          ~rule:(Cc.Window_cc.aimd ~a:1. ~b:0.5)
          ~max_window:1e9 ~p
      with
      | None -> Alcotest.fail "sawtooth_model returned None"
      | Some (avg, peak) ->
        let expect = sqrt (3. /. (2. *. p)) in
        Alcotest.(check bool)
          (Printf.sprintf "avg near sqrt(3/2p) at p=%g" p)
          true
          (Float.abs (avg -. expect) /. expect < 0.15);
        Alcotest.(check bool) "peak above average" true (peak > avg))
    [ 0.001; 0.01; 0.05 ];
  Alcotest.(check bool) "p=0 undefined" true
    (Cc.Window_cc.sawtooth_model
       ~rule:(Cc.Window_cc.aimd ~a:1. ~b:0.5)
       ~max_window:1e9 ~p:0.
    = None)

(* --- controller on the quick scenarios --- *)

(* No armed interval may contain a scheduled transient: each Arm's
   matching Thaw must land at or before the next transient after the
   arm (the controller aims [guard] seconds earlier; allow the guard as
   slack, not more). *)
let check_freeze_intervals ~what ~transients ff =
  let next_after t =
    List.fold_left
      (fun acc x -> if x > t && x < acc then x else acc)
      Float.infinity transients
  in
  let rec walk = function
    | (ta, Slowcc.Fluid.Arm) :: ((tt, Slowcc.Fluid.Thaw) :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: thaw %.2f before transient after arm %.2f" what
           tt ta)
        true
        (tt <= next_after ta +. 1e-9);
      walk rest
    | _ :: rest -> walk rest
    | [] -> ()
  in
  walk (Slowcc.Fluid.events ff);
  (* A controller must never still be armed when the run ends mid-freeze
     counts as one open interval at most. *)
  Alcotest.(check bool) (what ^ ": entries >= exits") true
    (Slowcc.Fluid.entries ff >= Slowcc.Fluid.exits ff
    && Slowcc.Fluid.entries ff - Slowcc.Fluid.exits ff <= 1)

let test_square_wave_ff_arms () =
  with_ff Engine.Fastforward.On (fun () ->
      let r =
        Slowcc.Scenarios.square_wave ~measure:80. ~flows:[ (tcp, 4) ]
          ~bandwidth:4e6 ~cbr_fraction:(2. /. 3.) ~period:40. ()
      in
      match r.Slowcc.Scenarios.sw_ff with
      | None -> Alcotest.fail "ff-on run has no controller"
      | Some ff ->
        Alcotest.(check bool) "arms at least once" true
          (Slowcc.Fluid.entries ff >= 1);
        Alcotest.(check bool) "skips simulated time" true
          (Slowcc.Fluid.skipped_sim_seconds ff > 1.);
        let edges = [ 20.; 40.; 60.; 80.; 100. ] in
        check_freeze_intervals ~what:"square" ~transients:edges ff;
        (* Fidelity: the hybrid answer stays in the same regime as the
           exact one (loose tolerance; the digest policy only promises
           weak convergence). *)
        Alcotest.(check bool) "utilization sane" true
          (r.Slowcc.Scenarios.utilization > 0.3
          && r.Slowcc.Scenarios.utilization < 1.2))

let test_square_wave_ff_off_inert () =
  with_ff Engine.Fastforward.Off (fun () ->
      let r =
        Slowcc.Scenarios.square_wave ~measure:20. ~flows:[ (tcp, 2) ]
          ~bandwidth:4e6 ~cbr_fraction:(2. /. 3.) ~period:10. ()
      in
      Alcotest.(check bool) "no controller when off" true
        (r.Slowcc.Scenarios.sw_ff = None))

let test_cbr_restart_ff_respects_transients () =
  with_ff Engine.Fastforward.On (fun () ->
      let r =
        Slowcc.Scenarios.cbr_restart ~n_flows:4 ~duration:220. ~protocol:tcp
          ~bandwidth:6e6 ()
      in
      match r.Slowcc.Scenarios.ff with
      | None -> Alcotest.fail "ff-on run has no controller"
      | Some ff ->
        check_freeze_intervals ~what:"cbr_restart"
          ~transients:[ 0.; 150.; 180. ] ff;
        Alcotest.(check bool) "arms in the long steady phases" true
          (Slowcc.Fluid.entries ff >= 1))

let test_flash_crowd_ff_respects_transients () =
  with_ff Engine.Fastforward.On (fun () ->
      let r =
        Slowcc.Scenarios.flash_crowd ~n_bg:4 ~duration:60. ~protocol:tcp
          ~bandwidth:6e6 ()
      in
      match r.Slowcc.Scenarios.fc_ff with
      | None -> Alcotest.fail "ff-on run has no controller"
      | Some ff ->
        check_freeze_intervals ~what:"flash_crowd" ~transients:[ 25. ] ff)

(* --- speed: ff-on must process far fewer events when steady --- *)

let test_ff_reduces_events () =
  let run mode =
    with_ff mode (fun () ->
        let sim = Engine.Sim.create () in
        let rng = Engine.Rng.create ~seed:11 in
        let db =
          Netsim.Dumbbell.create ~sim ~rng
            (Netsim.Dumbbell.default_config ~bandwidth:4e6)
        in
        let cfg =
          Cc.Window_cc.default_config
            (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)
        in
        let flows =
          List.init 4 (fun _ ->
              let src, dst = Netsim.Dumbbell.add_host_pair db in
              let flow_id = Netsim.Dumbbell.fresh_flow db in
              let t = Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg in
              let f = Cc.Flow_soa.flow t 0 in
              f.Cc.Flow.start ();
              f)
        in
        let ff =
          Slowcc.Fluid.maybe_attach ~sim
            ~link:(Netsim.Dumbbell.bottleneck db)
            ~flows ~transients:[] ()
        in
        Engine.Sim.run ~until:300. sim;
        (Engine.Sim.events_processed sim, ff))
  in
  let exact, _ = run Engine.Fastforward.Off in
  let hybrid, ff = run Engine.Fastforward.On in
  (match ff with
  | None -> Alcotest.fail "no controller attached"
  | Some ff ->
    Alcotest.(check bool) "controller armed" true (Slowcc.Fluid.entries ff >= 1);
    Alcotest.(check bool) "most sim time skipped" true
      (Slowcc.Fluid.skipped_sim_seconds ff > 150.));
  Alcotest.(check bool)
    (Printf.sprintf "hybrid processes <40%% of events (%d vs %d)" hybrid exact)
    true
    (float_of_int hybrid < 0.4 *. float_of_int exact)

(* --- cache keys (ff mode is key material) --- *)

let test_ff_mode_changes_cache_key () =
  let params mode =
    with_ff mode (fun () -> Slowcc.Experiments.params ~quick:true "fig7")
  in
  let p_off = params Engine.Fastforward.Off in
  let p_on = params Engine.Fastforward.On in
  Alcotest.(check bool) "off params carry no ff field" false
    (List.mem_assoc "fastforward" p_off);
  Alcotest.(check bool) "on params carry ff field" true
    (List.mem_assoc "fastforward" p_on);
  let dir = Filename.temp_file "slowcc_ffkey" "" in
  Sys.remove dir;
  let cache = Slowcc.Result_cache.create ~fingerprint:"fixed" ~dir () in
  let key params =
    Slowcc.Result_cache.key cache ~experiment:"fig7" ~quick:true ~params
  in
  Alcotest.(check bool) "distinct cache keys" true (key p_off <> key p_on);
  Slowcc.Result_cache.clear ~dir

let suite =
  [
    Alcotest.test_case "mode parse" `Quick test_mode_parse;
    Alcotest.test_case "mode gates sim" `Quick test_mode_gates_sim;
    Alcotest.test_case "detector window" `Quick test_detector_stable_window;
    Alcotest.test_case "detector rate band" `Quick
      test_detector_rate_band_blocks_growth;
    Alcotest.test_case "detector loss band" `Quick test_detector_loss_band;
    Alcotest.test_case "sawtooth closed form" `Quick
      test_sawtooth_matches_closed_form;
    Alcotest.test_case "square wave arms" `Slow test_square_wave_ff_arms;
    Alcotest.test_case "square wave ff-off inert" `Quick
      test_square_wave_ff_off_inert;
    Alcotest.test_case "cbr restart transients" `Slow
      test_cbr_restart_ff_respects_transients;
    Alcotest.test_case "flash crowd transients" `Slow
      test_flash_crowd_ff_respects_transients;
    Alcotest.test_case "ff reduces events" `Slow test_ff_reduces_events;
    Alcotest.test_case "ff mode changes cache key" `Quick
      test_ff_mode_changes_cache_key;
  ]

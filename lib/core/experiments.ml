let fnum = Table.fnum
let fpct = Table.fpct

(* ------------------------------------------------------------------ *)
(* Parallel sweep plumbing                                             *)
(*                                                                     *)
(* Every sweep below is a list of closed, independently-seeded jobs:   *)
(* each job builds its own Sim.t and Rng.t from a fixed seed, so the   *)
(* tables are bit-identical whether the jobs run serially ([pool] is   *)
(* [None]) or on any number of worker domains.  Results are always     *)
(* reassembled in submission order.                                    *)
(* ------------------------------------------------------------------ *)

let pmap ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some pool -> Engine.Pool.map_list pool f xs

(* Keyed form: run [(key, thunk)] jobs, get [(key, result)] in order. *)
let prun ?pool jobs = pmap ?pool (fun (k, f) -> (k, f ())) jobs

(* [grid ?pool xs ys f] runs [f x y] for every cell of the matrix as one
   batch, submitted x-major, and returns the cell lookup.  The whole
   matrix fans out at once instead of nesting a serial loop inside each
   row.  Cells are found by structural equality on [(x, y)], so the axes
   hold plain data (family names, parameters), never closures. *)
let grid ?pool xs ys f =
  let cells =
    prun ?pool
      (List.concat_map
         (fun x -> List.map (fun y -> ((x, y), fun () -> f x y)) ys)
         xs)
  in
  fun x y -> List.assoc (x, y) cells

(* Scenario bandwidths.  The paper gives 15 Mbps for the 3:1 oscillation
   experiments; for the others we size the link so that steady-state
   per-flow windows land in the paper's regime (a few percent loss). *)
let bw_restart = 60e6 (* 20 flows + half-link CBR -> ~7 pkts/RTT each *)
let bw_flash = 10e6
let bw_wave_31 = 15e6
let bw_wave_101 = 10e6
let bw_fair = 10e6
let bw_double = 10e6
let bw_pattern = 10e6

let gammas_full = [ 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. ]
let gammas_quick = [ 2.; 16.; 256. ]
let gamma_sweep quick = if quick then gammas_quick else gammas_full

let restart_families =
  [
    ("TCP(1/g)", fun g -> Protocol.tcp ~gamma:g);
    ("RAP(1/g)", fun g -> Protocol.rap ~gamma:g);
    ("SQRT(1/g)", fun g -> Protocol.sqrt_ ~gamma:g);
    ("TFRC(g)", fun g -> Protocol.tfrc ~k:(int_of_float g) ());
    ( "TFRC(g)+SC",
      fun g -> Protocol.tfrc ~conservative:true ~k:(int_of_float g) () );
  ]

(* ------------------------------------------------------------------ *)
(* Figure 3: loss-rate time series around the CBR restart              *)
(* ------------------------------------------------------------------ *)

let fig3 ?(quick = false) ?pool () =
  let protocols =
    if quick then
      [
        ("TCP(1/2)", Protocol.tcp ~gamma:2.);
        ("TFRC(256)", Protocol.tfrc ~k:256 ());
        ("TFRC(256)+SC", Protocol.tfrc ~conservative:true ~k:256 ());
      ]
    else
      [
        ("TCP(1/2)", Protocol.tcp ~gamma:2.);
        ("TCP(1/256)", Protocol.tcp ~gamma:256.);
        ("SQRT(1/256)", Protocol.sqrt_ ~gamma:256.);
        ("RAP(1/256)", Protocol.rap ~gamma:256.);
        ("TFRC(256)", Protocol.tfrc ~k:256 ());
        ("TFRC(256)+SC", Protocol.tfrc ~conservative:true ~k:256 ());
      ]
  in
  let duration = if quick then 230. else 300. in
  let results =
    prun ?pool
      (List.map
         (fun (name, p) ->
           ( name,
             fun () ->
               Scenarios.cbr_restart ~duration ~protocol:p
                 ~bandwidth:bw_restart () ))
         protocols)
  in
  let sample_times =
    List.init 17 (fun i -> 175. +. (2.5 *. float_of_int i))
    |> List.filter (fun time -> time < duration)
  in
  let rows =
    List.map
      (fun time ->
        fnum time
        :: List.map
             (fun (_, (r : Scenarios.cbr_restart_result)) ->
               let v =
                 Metrics.mean_between r.Scenarios.loss_series ~lo:time
                   ~hi:(time +. 2.5)
               in
               fpct v)
             results)
      sample_times
  in
  let notes =
    List.map
      (fun (name, (r : Scenarios.cbr_restart_result)) ->
        Printf.sprintf "%s steady-state loss %s" name (fpct r.Scenarios.steady_loss))
      results
  in
  Table.make ~id:"fig3" ~title:"Drop rate after CBR restart at t=180s (2.5s bins)"
    ~columns:("time(s)" :: List.map fst results)
    ~notes rows

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5: stabilization time and cost vs gamma               *)
(* ------------------------------------------------------------------ *)

(* The CBR-restart sweep over (family, gamma), rendered as a time table
   and a cost table. *)
let stab_tables ?(queue = Netsim.Dumbbell.Red) ?pool ~id_time ~id_cost
    ~title_suffix gammas =
  let families = List.map fst restart_families in
  let stab =
    grid ?pool families gammas (fun family g ->
        let r =
          Scenarios.cbr_restart ~queue
            ~protocol:(List.assoc family restart_families g)
            ~bandwidth:bw_restart ()
        in
        r.Scenarios.stab)
  in
  let table id title metric =
    Table.make ~id ~title:(title ^ title_suffix) ~columns:("gamma" :: families)
      (List.map
         (fun g ->
           fnum g
           :: List.map
                (fun family ->
                  match stab family g with
                  | Some (s : Metrics.stabilization) -> fnum (metric s)
                  | None -> "-")
                families)
         gammas)
  in
  ( table id_time "Stabilization time in RTTs vs gamma" (fun s ->
        s.Metrics.time_rtts),
    table id_cost "Stabilization cost vs gamma" (fun s -> s.Metrics.cost) )

let fig4_fig5 ?(quick = false) ?pool () =
  stab_tables ?pool ~id_time:"fig4" ~id_cost:"fig5" ~title_suffix:" (RED)"
    (gamma_sweep quick)

(* ------------------------------------------------------------------ *)
(* Figure 6: flash crowd                                               *)
(* ------------------------------------------------------------------ *)

let fig6 ?(quick = false) ?pool () =
  let protocols =
    [
      ("TCP(1/2)", Protocol.tcp ~gamma:2.);
      ("TFRC(256)", Protocol.tfrc ~k:256 ());
      ("TFRC(256)+SC", Protocol.tfrc ~conservative:true ~k:256 ());
    ]
  in
  let duration = if quick then 45. else 60. in
  let results =
    prun ?pool
      (List.map
         (fun (name, p) ->
           ( name,
             fun () ->
               Scenarios.flash_crowd ~duration ~protocol:p
                 ~bandwidth:bw_flash () ))
         protocols)
  in
  let times = List.init 21 (fun i -> 20. +. float_of_int i) in
  let mbps ts lo = Metrics.mean_between ts ~lo ~hi:(lo +. 1.) *. 8. /. 1e6 in
  let rows =
    List.map
      (fun time ->
        fnum time
        :: List.concat_map
             (fun (_, (r : Scenarios.flash_crowd_result)) ->
               [ fnum (mbps r.Scenarios.bg_rate time);
                 fnum (mbps r.Scenarios.crowd_rate time) ])
             results)
      (List.filter (fun time -> time +. 1. < duration) times)
  in
  let notes =
    List.map
      (fun (name, (r : Scenarios.flash_crowd_result)) ->
        Printf.sprintf "%s: crowd %d/%d flows done, mean completion %.2fs"
          name r.Scenarios.crowd_completed r.Scenarios.crowd_started
          r.Scenarios.mean_completion)
      results
  in
  Table.make ~id:"fig6"
    ~title:"Aggregate throughput (Mbps) around flash crowd at t=25s"
    ~columns:
      ("time(s)"
      :: List.concat_map
           (fun (name, _) -> [ name ^ " bg"; name ^ " crowd" ])
           results)
    ~notes rows

(* ------------------------------------------------------------------ *)
(* Figures 7-9: long-term fairness under a 3:1 square wave             *)
(* ------------------------------------------------------------------ *)

let periods_full = [ 0.2; 0.4; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 100. ]
let periods_quick = [ 0.4; 4.; 32. ]

let fairness_wave ~id ~quick ?pool ~other_name ~other () =
  let periods = if quick then periods_quick else periods_full in
  let tcp = Protocol.tcp ~gamma:2. in
  let rows =
    pmap ?pool
      (fun period ->
        let r =
          Scenarios.square_wave
            ~measure:(if quick then Float.max 60. (4. *. period) else Float.max 100. (8. *. period))
            ~flows:[ (tcp, 5); (other, 5) ]
            ~bandwidth:bw_wave_31 ~cbr_fraction:(2. /. 3.) ~period ()
        in
        [
          fnum period;
          fnum (r.Scenarios.group_mean (Protocol.name tcp));
          fnum (r.Scenarios.group_mean (Protocol.name other));
          fnum r.Scenarios.utilization;
          fpct r.Scenarios.drop_rate;
        ])
      periods
  in
  Table.make ~id
    ~title:
      (Printf.sprintf
         "Normalized throughput, 5 TCP vs 5 %s, 3:1 bandwidth oscillation"
         other_name)
    ~columns:[ "period(s)"; "TCP"; other_name; "util"; "drop rate" ]
    ~notes:
      [ "normalized: 1.0 = fair share of the average available bandwidth" ]
    rows

let fig7 ?(quick = false) ?pool () =
  fairness_wave ~id:"fig7" ~quick ?pool ~other_name:"TFRC(6)"
    ~other:(Protocol.tfrc ~k:6 ()) ()

let fig8 ?(quick = false) ?pool () =
  fairness_wave ~id:"fig8" ~quick ?pool ~other_name:"TCP(1/8)"
    ~other:(Protocol.tcp ~gamma:8.) ()

let fig9 ?(quick = false) ?pool () =
  fairness_wave ~id:"fig9" ~quick ?pool ~other_name:"SQRT(1/2)"
    ~other:(Protocol.sqrt_ ~gamma:2.) ()

(* ------------------------------------------------------------------ *)
(* Figures 10 and 12: delta-fair convergence times                     *)
(* ------------------------------------------------------------------ *)

let convergence_table ~id ~title ?pool ~protocol_of ~params ~quick () =
  let n_trials = if quick then 1 else 3 in
  let cap = if quick then 200. else 600. in
  (* Parallelism comes from the param sweep; the per-param trials also
     take the pool but run inline when already on a worker domain. *)
  let rows =
    pmap ?pool
      (fun param ->
        let time, converged =
          Scenarios.fair_convergence ?pool ~n_trials ~cap
            ~protocol:(protocol_of param) ~bandwidth:bw_fair ()
        in
        [
          fnum param;
          (if converged = 0 then Printf.sprintf ">%.0f" cap else fnum time);
          Printf.sprintf "%d/%d" converged n_trials;
        ])
      params
  in
  Table.make ~id ~title
    ~columns:[ "1/b"; "time to 0.1-fair (s)"; "converged" ]
    rows

let fig10 ?(quick = false) ?pool () =
  let params = if quick then [ 2.; 8.; 64. ] else [ 2.; 4.; 8.; 16.; 32.; 64.; 128. ] in
  convergence_table ~id:"fig10"
    ~title:"Time to 0.1-fairness for two TCP(b) flows, B = 10 Mbps"
    ?pool
    ~protocol_of:(fun g -> Protocol.tcp ~gamma:g)
    ~params ~quick ()

let fig12 ?(quick = false) ?pool () =
  let params = if quick then [ 2.; 8.; 64. ] else [ 2.; 4.; 8.; 16.; 32.; 64.; 256. ] in
  convergence_table ~id:"fig12"
    ~title:"Time to 0.1-fairness for two TFRC(b) flows, B = 10 Mbps"
    ?pool
    ~protocol_of:(fun g -> Protocol.tfrc ~k:(int_of_float g) ())
    ~params ~quick ()

(* ------------------------------------------------------------------ *)
(* Figure 11: analytical ACK count for 0.1-fairness                    *)
(* ------------------------------------------------------------------ *)

let fig11 ?quick:_ ?pool:_ () =
  let bs = [ 0.5; 0.25; 0.125; 1. /. 16.; 1. /. 32.; 1. /. 64.; 1. /. 128.; 1. /. 256. ] in
  let rows =
    List.map
      (fun b ->
        [
          fnum (1. /. b);
          Printf.sprintf "%.0f"
            (Analysis.Aimd_convergence.acks_to_fairness ~b ~p:0.1 ~delta:0.1);
        ])
      bs
  in
  Table.make ~id:"fig11"
    ~title:"Expected ACKs to 0.1-fairness, analytical, p = 0.1"
    ~columns:[ "1/b"; "acks" ]
    ~notes:[ "log(delta) / log(1 - b p) from Section 4.2.2" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 13: f(20) and f(200) after a bandwidth doubling              *)
(* ------------------------------------------------------------------ *)

let fig13 ?(quick = false) ?pool () =
  let params = if quick then [ 2.; 8.; 256. ] else [ 2.; 4.; 8.; 16.; 64.; 256. ] in
  let t_stop = if quick then 60. else 300. in
  let families =
    [
      ("TCP(1/b)", fun g -> Protocol.tcp ~gamma:g);
      ("SQRT(1/b)", fun g -> Protocol.sqrt_ ~gamma:g);
      ("TFRC(b)", fun g -> Protocol.tfrc ~k:(int_of_float g) ());
    ]
  in
  let f =
    grid ?pool params (List.map fst families) (fun g fam ->
        let r =
          Scenarios.bandwidth_double ~t_stop
            ~protocol:(List.assoc fam families g)
            ~bandwidth:bw_double ()
        in
        (r.Scenarios.f20, r.Scenarios.f200))
  in
  let rows =
    List.map
      (fun g ->
        fnum g
        :: List.concat_map
             (fun (fam, _) ->
               let f20, f200 = f g fam in
               [ fnum f20; fnum f200 ])
             families)
      params
  in
  Table.make ~id:"fig13"
    ~title:"Link utilization f(20), f(200) after the bandwidth doubles"
    ~columns:
      ("1/b"
      :: List.concat_map (fun (n, _) -> [ n ^ " f20"; n ^ " f200" ]) families)
    rows

(* ------------------------------------------------------------------ *)
(* Figures 14-16: utilization under homogeneous oscillating load       *)
(* ------------------------------------------------------------------ *)

let onoff_times_full = [ 0.05; 0.1; 0.2; 0.5; 1.; 2.; 5. ]
let onoff_times_quick = [ 0.05; 0.2; 1. ]

(* Ten identical flows under the square wave, one run per (on/off time,
   protocol) cell, rendered as a utilization table and a drop-rate
   table. *)
let wave_util_tables ?pool ~quick ~bandwidth ~cbr_fraction ~id_util ~id_drop
    ~title () =
  let onoffs = if quick then onoff_times_quick else onoff_times_full in
  let protocols =
    [
      ("TCP(1/8)", Protocol.tcp ~gamma:8.);
      ("TCP", Protocol.tcp ~gamma:2.);
      ("TFRC(6)", Protocol.tfrc ~k:6 ());
    ]
  in
  let protos = List.map fst protocols in
  let result =
    grid ?pool onoffs protos (fun onoff name ->
        Scenarios.square_wave
          ~measure:(if quick then 60. else 120.)
          ~flows:[ (List.assoc name protocols, 10) ]
          ~bandwidth ~cbr_fraction ~period:(2. *. onoff) ())
  in
  let table id what cell =
    Table.make ~id ~title:(title ^ ": " ^ what)
      ~columns:("on/off(s)" :: protos)
      (List.map
         (fun onoff ->
           fnum onoff :: List.map (fun name -> cell (result onoff name)) protos)
         onoffs)
  in
  ( table id_util "link utilization" (fun r -> fnum r.Scenarios.utilization),
    table id_drop "packet drop rate" (fun r -> fpct r.Scenarios.drop_rate) )

let fig14_fig15 ?(quick = false) ?pool () =
  wave_util_tables ?pool ~quick ~bandwidth:bw_wave_31 ~cbr_fraction:(2. /. 3.)
    ~id_util:"fig14" ~id_drop:"fig15"
    ~title:"3:1 oscillating bandwidth, 10 identical flows" ()

let fig16 ?(quick = false) ?pool () =
  fst
    (wave_util_tables ?pool ~quick ~bandwidth:bw_wave_101 ~cbr_fraction:0.9
       ~id_util:"fig16" ~id_drop:"fig16-drop"
       ~title:"10:1 oscillating bandwidth, 10 identical flows" ())

(* ------------------------------------------------------------------ *)
(* Figures 17-19: designed bursty loss patterns                        *)
(* ------------------------------------------------------------------ *)

let mild_pattern = Scenarios.Counts [ 50; 50; 50; 400; 400; 400 ]
let harsh_pattern = Scenarios.Phases [ (6.0, 200); (1.0, 4) ]

let pattern_table ~id ~title ?pool ~pattern ~protocols ~quick () =
  let duration = if quick then 40. else 60. in
  let results =
    prun ?pool
      (List.map
         (fun (name, p) ->
           ( name,
             fun () ->
               Scenarios.loss_pattern ~duration ~protocol:p ~pattern
                 ~bandwidth:bw_pattern () ))
         protocols)
  in
  let times =
    List.init 40 (fun i -> 30. +. (0.2 *. float_of_int i))
    |> List.filter (fun time -> time < duration)
  in
  let rows =
    List.map
      (fun time ->
        fnum time
        :: List.map
             (fun (_, (r : Scenarios.loss_pattern_result)) ->
               fnum
                 (Metrics.mean_between r.Scenarios.rate_02s ~lo:time
                    ~hi:(time +. 0.2)
                 *. 8. /. 1e6))
             results)
      times
  in
  let notes =
    List.map
      (fun (name, (r : Scenarios.loss_pattern_result)) ->
        Printf.sprintf "%s: avg throughput %.2f Mbps, smoothness %.2f" name
          (r.Scenarios.avg_throughput *. 8. /. 1e6)
          r.Scenarios.smoothness)
      results
  in
  Table.make ~id ~title
    ~columns:("time(s)" :: List.map (fun (n, _) -> n ^ " Mbps") results)
    ~notes rows

let fig17 ?(quick = false) ?pool () =
  pattern_table ~id:"fig17"
    ~title:"Sending rate under the mild bursty loss pattern (0.2s bins)"
    ?pool ~pattern:mild_pattern
    ~protocols:
      [
        ("TFRC(6)", Protocol.tfrc ~k:6 ());
        ("TCP(1/8)", Protocol.tcp ~gamma:8.);
      ]
    ~quick ()

let fig18 ?(quick = false) ?pool () =
  pattern_table ~id:"fig18"
    ~title:"Sending rate under the harsh bursty loss pattern (0.2s bins)"
    ?pool ~pattern:harsh_pattern
    ~protocols:
      [
        ("TFRC(6)", Protocol.tfrc ~k:6 ());
        ("TCP(1/8)", Protocol.tcp ~gamma:8.);
        ("TCP(1/2)", Protocol.tcp ~gamma:2.);
      ]
    ~quick ()

let fig19 ?(quick = false) ?pool () =
  pattern_table ~id:"fig19"
    ~title:"IIAD vs SQRT under the mild bursty loss pattern (0.2s bins)"
    ?pool ~pattern:mild_pattern
    ~protocols:
      [
        ("IIAD", Protocol.iiad ~gamma:2.);
        ("SQRT", Protocol.sqrt_ ~gamma:2.);
      ]
    ~quick ()

(* ------------------------------------------------------------------ *)
(* Figure 20: response functions with and without timeouts             *)
(* ------------------------------------------------------------------ *)

let fig20 ?quick:_ ?pool:_ () =
  let ps = [ 0.01; 0.03; 0.05; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ] in
  let rows =
    List.map
      (fun p ->
        [
          fnum p;
          fnum (Analysis.Response_function.reno_padhye ~p ());
          fnum (Analysis.Response_function.pure_aimd ~p ());
          fnum (Analysis.Response_function.aimd_with_timeouts ~p);
        ])
      ps
  in
  Table.make ~id:"fig20"
    ~title:"Throughput equations (packets/RTT) with and without timeouts"
    ~columns:[ "p"; "Reno (Padhye)"; "pure AIMD"; "AIMD w/ timeouts" ]
    ~notes:
      [
        "Reno lower-bounds TCP; AIMD-with-timeouts (Appendix A) upper-bounds it";
        "pure AIMD is only meaningful for p < ~1/3";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* Appendix A validation: measured TCP throughput across the whole loss
   range, overlaid on the three analytic curves of Figure 20.  The
   measured points must fall between the Reno lower bound and the
   AIMD-with-timeouts upper bound.  The minimum RTO is set to one RTT so
   the timeout backoff operates in RTT units, as the model assumes. *)
let ablation_response_sim ?(quick = false) ?pool () =
  let rtt = 0.05 in
  let drop_every = if quick then [ 100; 4 ] else [ 300; 100; 30; 10; 6; 4; 3; 2 ] in
  let measure ?(sack = false) n =
    let sim = Engine.Sim.create () in
    let rng = Engine.Rng.create ~seed:6 in
    let make_queue () =
      (* Random (Bernoulli) drops: the environment the analytic curves
         assume.  Deterministic every-n-th drops phase-lock with backoff
         retransmissions at high p. *)
      Netsim.Loss_pattern.bernoulli ~rng:(Engine.Rng.split rng)
        ~p:(1. /. float_of_int n)
        (Netsim.Droptail.make ~capacity:100000)
    in
    let config =
      {
        (Netsim.Dumbbell.default_config ~bandwidth:50e6) with
        Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
      }
    in
    let db = Netsim.Dumbbell.create ~sim ~rng config in
    let src, dst = Netsim.Dumbbell.add_host_pair db in
    let flow_id = Netsim.Dumbbell.fresh_flow db in
    let cfg =
      {
        (Cc.Window_cc.default_config (Cc.Window_cc.tcp_compatible_aimd ~b:0.5)) with
        Cc.Window_cc.min_rto = 4. *. rtt (* T0 = 4 RTT, as in the model *);
        sack;
      }
    in
    let flow =
      Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg) 0
    in
    flow.Cc.Flow.start ();
    let horizon = 120. in
    Engine.Sim.run ~until:horizon sim;
    flow.Cc.Flow.bytes_delivered () /. 1000. /. (horizon /. rtt)
  in
  let rows =
    pmap ?pool
      (fun n ->
        let p = 1. /. float_of_int n in
        [
          fnum p;
          fnum (measure n);
          fnum (measure ~sack:true n);
          fnum (Analysis.Response_function.reno_padhye ~p ());
          fnum (Analysis.Response_function.pure_aimd ~p ());
          fnum (Analysis.Response_function.aimd_with_timeouts ~p);
        ])
      drop_every
  in
  Table.make ~id:"ablation-response-sim"
    ~title:"Measured TCP vs the Figure 20 analytic curves (pkts/RTT)"
    ~columns:
      [ "p"; "Reno meas."; "SACK meas."; "Reno (lower)"; "pure AIMD";
        "timeouts (upper)" ]
    ~notes:
      [
        "random (Bernoulli) loss; min RTO = 4 RTT to match the model's T0";
        "measured points should track the Reno curve and sit below the \
         timeouts upper bound; Appendix A predicts SACK between the lines";
      ]
    rows

(* Self-clocking on/off across gamma for TFRC: isolates the effect the
   paper attributes to packet conservation. *)
let ablation_self_clocking ?(quick = false) ?pool () =
  let gammas = if quick then [ 8.; 256. ] else [ 8.; 32.; 64.; 256. ] in
  let stab =
    grid ?pool gammas [ false; true ] (fun g conservative ->
        let r =
          Scenarios.cbr_restart
            ~protocol:(Protocol.tfrc ~conservative ~k:(int_of_float g) ())
            ~bandwidth:bw_restart ()
        in
        match r.Scenarios.stab with
        | Some s -> (s.Metrics.time_rtts, s.Metrics.cost)
        | None -> (0., 0.))
  in
  let rows =
    List.map
      (fun g ->
        let t_off, c_off = stab g false in
        let t_on, c_on = stab g true in
        [ fnum g; fnum t_off; fnum c_off; fnum t_on; fnum c_on ])
      gammas
  in
  Table.make ~id:"ablation-self-clocking"
    ~title:"TFRC(g) stabilization with and without self-clocking"
    ~columns:[ "g"; "time(RTT) off"; "cost off"; "time(RTT) on"; "cost on" ]
    rows

(* Sweep of the conservative option's C constant. *)
let ablation_conservative_c ?(quick = false) ?pool () =
  let cs = if quick then [ 1.1; 2.0 ] else [ 1.0; 1.1; 1.5; 2.0; 4.0 ] in
  let rows =
    pmap ?pool
      (fun c ->
        let r =
          Scenarios.cbr_restart
            ~protocol:
              (Protocol.tfrc ~conservative:true ~conservative_c:c ~k:256 ())
            ~bandwidth:bw_restart ()
        in
        match r.Scenarios.stab with
        | Some s -> [ fnum c; fnum s.Metrics.time_rtts; fnum s.Metrics.cost ]
        | None -> [ fnum c; "-"; "-" ])
      cs
  in
  Table.make ~id:"ablation-conservative-c"
    ~title:"Effect of the conservative option's C constant (TFRC(256)+SC)"
    ~columns:[ "C"; "stab time (RTT)"; "stab cost" ]
    rows

let ablation_sawtooth ?(quick = false) ?pool () =
  (* Section 4.2.1: sawtooth and reverse-sawtooth CBR patterns give
     "essentially the same" TCP-over-TFRC advantage as the square wave,
     only less pronounced.  Compare all three at the periods where the
     square wave separates them most. *)
  let periods = if quick then [ 4. ] else [ 2.; 4.; 8. ] in
  let tcp = Protocol.tcp ~gamma:2. and tfrc = Protocol.tfrc ~k:6 () in
  let shapes =
    [
      ("square", Scenarios.Square);
      ("sawtooth", Scenarios.Sawtooth);
      ("reverse sawtooth", Scenarios.Reverse_sawtooth);
    ]
  in
  let rows =
    pmap ?pool
      (fun (period, (shape_name, shape)) ->
        let r =
          Scenarios.square_wave ~shape
            ~measure:(if quick then 60. else 120.)
            ~flows:[ (tcp, 5); (tfrc, 5) ]
            ~bandwidth:bw_wave_31 ~cbr_fraction:(2. /. 3.) ~period ()
        in
        let m_tcp = r.Scenarios.group_mean (Protocol.name tcp) in
        let m_tfrc = r.Scenarios.group_mean (Protocol.name tfrc) in
        [
          fnum period;
          shape_name;
          fnum m_tcp;
          fnum m_tfrc;
          fnum (m_tcp /. Float.max 0.01 m_tfrc);
        ])
      (List.concat_map
         (fun period -> List.map (fun shape -> (period, shape)) shapes)
         periods)
  in
  Table.make ~id:"ablation-sawtooth"
    ~title:"TCP vs TFRC(6) under square, sawtooth and reverse-sawtooth CBR"
    ~columns:[ "period(s)"; "shape"; "TCP"; "TFRC(6)"; "TCP/TFRC" ]
    rows

(* Droptail instead of RED for the Figure 4/5 scenario (the paper notes
   the self-clocking benefit holds under droptail too). *)
let ablation_droptail ?quick:_ ?pool () =
  snd
    (stab_tables ~queue:Netsim.Dumbbell.Droptail ?pool ~id_time:"x"
       ~id_cost:"ablation-droptail" ~title_suffix:" (droptail)" gammas_quick)

(* RTT unfairness (extension): the paper's introduction notes TCP does not
   equalize flows with different round-trip times.  Measure the throughput
   ratio of a short-RTT and a long-RTT flow of each protocol sharing one
   bottleneck; TCP's known bias is roughly RTT^-1..-2, while rate-based
   TFRC follows its equation's 1/R dependence. *)
let ablation_rtt_fairness ?(quick = false) ?pool () =
  let protocols =
    if quick then [ ("TCP", Protocol.tcp ~gamma:2.) ]
    else
      [
        ("TCP", Protocol.tcp ~gamma:2.);
        ("TCP(1/8)", Protocol.tcp ~gamma:8.);
        ("TFRC(6)", Protocol.tfrc ~k:6 ());
        ("SQRT(1/2)", Protocol.sqrt_ ~gamma:2.);
      ]
  in
  let rows =
    pmap ?pool
      (fun (name, p) ->
        let env = Scenarios.make_env ~seed:31 ~bandwidth:10e6 () in
        (* Base RTT 50 ms vs 150 ms (extra 25 ms per edge link). *)
        let short = Protocol.spawn p env.Scenarios.db in
        let long = Protocol.spawn ~extra_delay:0.025 p env.Scenarios.db in
        short.Cc.Flow.start ();
        long.Cc.Flow.start ();
        Engine.Sim.run ~until:120. env.Scenarios.sim;
        let ratio =
          short.Cc.Flow.bytes_delivered ()
          /. Float.max 1. (long.Cc.Flow.bytes_delivered ())
        in
        [ name; fnum ratio ])
      protocols
  in
  Table.make ~id:"ablation-rtt-fairness"
    ~title:"RTT bias: throughput(50ms flow) / throughput(150ms flow)"
    ~columns:[ "protocol"; "short/long ratio" ]
    ~notes:[ "1.0 would be RTT-independent sharing; TCP is known to be biased" ]
    rows

(* Binomial l-sweep (extension): k + l = 1 keeps TCP-compatibility; smaller
   l is more slowly-responsive (Section 2).  Sweep l and report smoothness
   under the mild bursty pattern and f(20) after a bandwidth doubling. *)
let ablation_binomial_l ?(quick = false) ?pool () =
  let ls = if quick then [ 0.; 1. ] else [ 0.; 0.25; 0.5; 0.75; 1. ] in
  let rows =
    pmap ?pool
      (fun l ->
        let k = 1. -. l in
        let b =
          (* Decrease equal to half the window at the reference point. *)
          (sqrt (1.5 /. 0.01) ** (1. -. l)) /. 2.
        in
        let a = Analysis.Binomial_calibration.calibrate_a ~k ~l ~b () in
        let rule = Cc.Window_cc.binomial ~k ~l ~a ~b in
        let spawn db =
          let sim = Netsim.Dumbbell.sim db in
          let src, dst = Netsim.Dumbbell.add_host_pair db in
          let flow_id = Netsim.Dumbbell.fresh_flow db in
          let cfg = Cc.Window_cc.default_config rule in
          Cc.Flow_soa.flow
            (Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg)
            0
        in
        (* Smoothness under the mild pattern. *)
        let sim = Engine.Sim.create () in
        let rng = Engine.Rng.create ~seed:8 in
        let make_queue () =
          Netsim.Loss_pattern.by_count ~pattern:[ 50; 50; 50; 400; 400; 400 ]
            (Netsim.Droptail.make ~capacity:1000)
        in
        let config =
          {
            (Netsim.Dumbbell.default_config ~bandwidth:bw_pattern) with
            Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
          }
        in
        let db = Netsim.Dumbbell.create ~sim ~rng config in
        let flow = spawn db in
        flow.Cc.Flow.start ();
        let rate =
          Engine.Probe.sample_rate sim ~every:0.2 (fun () ->
              flow.Cc.Flow.bytes_sent ())
        in
        Engine.Sim.run ~until:40. sim;
        let measured = Engine.Timeseries.create () in
        List.iter
          (fun (time, v) ->
            if time >= 10. then Engine.Timeseries.add measured ~time v)
          (Engine.Timeseries.to_list rate);
        let smooth = Metrics.smoothness ~floor:100. measured in
        let thr = flow.Cc.Flow.bytes_delivered () *. 8. /. 40. /. 1e6 in
        [ fnum l; fnum k; fnum a; fnum b; fnum smooth; fnum thr ])
      ls
  in
  Table.make ~id:"ablation-binomial-l"
    ~title:"Binomial family sweep along k + l = 1 (mild bursty pattern)"
    ~columns:[ "l"; "k"; "a"; "b"; "smoothness"; "Mbps" ]
    ~notes:
      [
        "l = 1 is AIMD (multiplicative decrease), l = 0 is IIAD-like";
        "smaller l reduces the rate by less per loss -> smoother";
      ]
    rows

(* Section 4.2.1's stronger claim: under 10:1 oscillations the TCP-over-
   TFRC throughput advantage is "significantly more prominent" than under
   3:1.  Compare the two directly at the worst-case periods. *)
let ablation_10to1_fairness ?(quick = false) ?pool () =
  let periods = if quick then [ 4. ] else [ 1.; 4.; 16. ] in
  let tcp = Protocol.tcp ~gamma:2. and tfrc = Protocol.tfrc ~k:6 () in
  let run ~bandwidth ~cbr_fraction period =
    let r =
      Scenarios.square_wave
        ~measure:(if quick then 60. else 120.)
        ~flows:[ (tcp, 5); (tfrc, 5) ]
        ~bandwidth ~cbr_fraction ~period ()
    in
    let m_tcp = r.Scenarios.group_mean (Protocol.name tcp) in
    let m_tfrc = r.Scenarios.group_mean (Protocol.name tfrc) in
    m_tcp /. Float.max 0.01 m_tfrc
  in
  (* Oscillation depths 3:1 and 10:1, as (bandwidth, CBR fraction). *)
  let depths = [ (bw_wave_31, 2. /. 3.); (bw_wave_101, 0.9) ] in
  let ratio =
    grid ?pool periods depths (fun period (bandwidth, cbr_fraction) ->
        run ~bandwidth ~cbr_fraction period)
  in
  let rows =
    List.map
      (fun period ->
        fnum period :: List.map (fun d -> fnum (ratio period d)) depths)
      periods
  in
  Table.make ~id:"ablation-10to1-fairness"
    ~title:"TCP/TFRC(6) throughput ratio: 3:1 vs 10:1 oscillations"
    ~columns:[ "period(s)"; "3:1 ratio"; "10:1 ratio" ]
    ~notes:[ "the paper reports the gap is markedly larger at 10:1" ]
    rows

(* Queue dynamics (extension, cf. the paper's reference [7]): average
   occupancy and variability of the bottleneck queue when all flows use
   one protocol, under RED and droptail.  SlowCC's gentler rate changes
   should show as a steadier queue. *)
let ablation_queue_dynamics ?(quick = false) ?pool () =
  let protocols =
    if quick then [ ("TCP", Protocol.tcp ~gamma:2.) ]
    else
      [
        ("TCP", Protocol.tcp ~gamma:2.);
        ("TCP(1/8)", Protocol.tcp ~gamma:8.);
        ("TFRC(6)", Protocol.tfrc ~k:6 ());
      ]
  in
  let queues = [ ("RED", Netsim.Dumbbell.Red); ("droptail", Netsim.Dumbbell.Droptail) ] in
  let rows =
    pmap ?pool
      (fun ((qname, queue), (pname, p)) ->
        let env = Scenarios.make_env ~seed:23 ~queue ~bandwidth:10e6 () in
            let flows = List.init 8 (fun _ -> Protocol.spawn p env.Scenarios.db) in
            List.iter (fun (f : Cc.Flow.t) -> f.Cc.Flow.start ()) flows;
            let link = Netsim.Dumbbell.bottleneck env.Scenarios.db in
            let qlen =
              Engine.Probe.sample_level env.Scenarios.sim ~every:0.05 (fun () ->
                  float_of_int ((Netsim.Link.queue link).Netsim.Queue_intf.pkts ()))
            in
            Engine.Sim.run ~until:60. env.Scenarios.sim;
            let stats = Engine.Stats.create () in
            List.iter
              (fun (time, v) -> if time > 20. then Engine.Stats.add stats v)
              (Engine.Timeseries.to_list qlen);
            [
              pname;
              qname;
              fnum (Engine.Stats.mean stats);
              fnum (Engine.Stats.stddev stats);
              fnum (Engine.Stats.cov stats);
            ])
      (List.concat_map
         (fun q -> List.map (fun p -> (q, p)) protocols)
         queues)
  in
  Table.make ~id:"ablation-queue-dynamics"
    ~title:"Bottleneck queue occupancy, 8 identical flows, 10 Mbps"
    ~columns:[ "protocol"; "queue"; "mean (pkts)"; "stddev"; "CoV" ]
    rows

(* Many-flow weak convergence (extension, cf. the paper's aggregate-regime
   discussion): an ensemble of N identical TCP flows shares a dumbbell
   sized at 16 kbit/s of fair share each, so the per-flow window sits
   below one packet per RTT and fairness is only meaningful as a
   distribution.  Runs on the struct-of-arrays engine; one run per N. *)
let manyflow_results ?(quick = false) ?pool () =
  pmap ?pool
    (fun n -> Manyflow.run (Manyflow.experiment_params ~quick n))
    (Manyflow.ns ~quick)

let manyflow_tables ?quick ?pool () =
  let results = manyflow_results ?quick ?pool () in
  let stats =
    Table.make ~id:"manyflow"
      ~title:"Many-flow weak convergence: normalized per-flow throughput"
      ~columns:
        [
          "flows"; "mean"; "CoV"; "CoV(sampled)"; "Jain"; "p10"; "p50"; "p90";
          "util"; "drop rate"; "events";
        ]
      ~notes:
        [
          "fair share = bottleneck/N = 16 kbit/s per flow at every N";
          "CoV(sampled) comes from a 256-flow deterministic reservoir";
        ]
      (List.map
         (fun (r : Manyflow.result) ->
           [
             string_of_int r.Manyflow.rn;
             fnum r.Manyflow.mean_norm;
             fnum r.Manyflow.cov;
             fnum r.Manyflow.cov_sampled;
             fnum r.Manyflow.jain;
             fnum r.Manyflow.p10;
             fnum r.Manyflow.p50;
             fnum r.Manyflow.p90;
             fpct r.Manyflow.utilization;
             fpct r.Manyflow.drop_rate;
             string_of_int r.Manyflow.events;
           ])
         results)
  in
  let hist =
    Table.make ~id:"manyflow-hist"
      ~title:"Many-flow throughput histogram (fraction of flows per bucket)"
      ~columns:
        ("flows"
        :: List.init Manyflow.hist_buckets (fun k -> Manyflow.bucket_label k))
      (List.map
         (fun (r : Manyflow.result) ->
           string_of_int r.Manyflow.rn
           :: Array.to_list (Array.map fnum r.Manyflow.hist))
         results)
  in
  (stats, hist)

(* ------------------------------------------------------------------ *)
(* Modern-CC protocol zoo: the dynamic gauntlet                        *)
(* ------------------------------------------------------------------ *)

(* The paper's question asked of today's controllers: the BBR-style and
   Vegas-style senders (plus standard TCP as the yardstick) run the four
   dynamic scenarios — CBR restart, oscillating bandwidth, flash crowd,
   designed loss pattern — and land in one digested table.  One closed
   job per (family, scenario) pair, so the sweep parallelizes and the
   table is bit-identical at any job count. *)

let bw_zoo = 15e6 (* 5 flows + half-link CBR -> ~9 pkts/RTT each *)

let zoo_families =
  [
    ("BBR", Protocol.bbr);
    ("VEGAS(2,4)", Protocol.vegas ());
    ("TCP(1/2)", Protocol.tcp ~gamma:2.);
  ]

let zoo_gauntlet ?(quick = false) ?pool () =
  let restart_duration = if quick then 230. else 300. in
  let wave_measure = if quick then 30. else 60. in
  let flash_duration = if quick then 45. else 60. in
  let pattern_duration = if quick then 40. else 60. in
  (* Each scenario yields two metrics. *)
  let metrics =
    grid ?pool (List.map fst zoo_families)
      [ `Restart; `Wave; `Flash; `Pattern ]
      (fun fname scenario ->
        let p = List.assoc fname zoo_families in
        match scenario with
        | `Restart ->
          let r =
            Scenarios.cbr_restart ~n_flows:5 ~duration:restart_duration
              ~protocol:p ~bandwidth:bw_zoo ()
          in
          ( r.Scenarios.steady_loss,
            match r.Scenarios.stab with
            | Some s -> s.Metrics.time_rtts
            | None -> Float.nan )
        | `Wave ->
          let r =
            Scenarios.square_wave ~measure:wave_measure ~flows:[ (p, 4) ]
              ~bandwidth:bw_zoo ~cbr_fraction:(2. /. 3.) ~period:4. ()
          in
          (r.Scenarios.utilization, r.Scenarios.drop_rate)
        | `Flash ->
          let r =
            Scenarios.flash_crowd ~duration:flash_duration ~protocol:p
              ~bandwidth:bw_flash ()
          in
          ( (if r.Scenarios.crowd_started = 0 then Float.nan
             else
               float_of_int r.Scenarios.crowd_completed
               /. float_of_int r.Scenarios.crowd_started),
            r.Scenarios.mean_completion )
        | `Pattern ->
          let r =
            Scenarios.loss_pattern ~duration:pattern_duration ~protocol:p
              ~pattern:mild_pattern ~bandwidth:bw_pattern ()
          in
          (r.Scenarios.avg_throughput *. 8. /. 1e6, r.Scenarios.smoothness))
  in
  let cell v = if Float.is_nan v then "-" else fnum v in
  let pcell v = if Float.is_nan v then "-" else fpct v in
  let rows =
    List.map
      (fun (fname, _) ->
        let restart_loss, stab = metrics fname `Restart in
        let util, drops = metrics fname `Wave in
        let crowd_done, crowd_mean = metrics fname `Flash in
        let mbps, smoothness = metrics fname `Pattern in
        [
          fname; pcell restart_loss; cell stab; pcell util; pcell drops;
          pcell crowd_done; cell crowd_mean; cell mbps; cell smoothness;
        ])
      zoo_families
  in
  Table.make ~id:"zoo-gauntlet"
    ~title:
      "Protocol zoo through the dynamic gauntlet (CBR restart, oscillating \
       bandwidth, flash crowd, designed loss)"
    ~columns:
      [
        "protocol"; "restart loss"; "stab (RTTs)"; "wave util"; "wave drops";
        "crowd done"; "crowd mean (s)"; "pattern Mbps"; "smoothness";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* One record per unit of computation.  [also] lists the further ids the
   unit's sweep answers: their tables come out of the same run, so they
   share the unit's cache entry and work-queue job.
   [params] is the scenario parameter record written to manifests; only
   the knobs that shape the experiment are listed, everything else is a
   fixed constant of the scenario code, already pinned by the table
   digests. *)
type experiment = {
  id : string;
  also : string list;
  params : quick:bool -> (string * Engine.Json.t) list;
  run : quick:bool -> pool:Engine.Pool.t option -> Table.t list;
}

let single id params
    (f : ?quick:bool -> ?pool:Engine.Pool.t -> unit -> Table.t) =
  { id; also = []; params; run = (fun ~quick ~pool -> [ f ~quick ?pool () ]) }

let pair ?(also = []) id params
    (f : ?quick:bool -> ?pool:Engine.Pool.t -> unit -> Table.t * Table.t) =
  let run ~quick ~pool =
    let a, b = f ~quick ?pool () in
    [ a; b ]
  in
  { id; also; params; run }

let bw v = ("bandwidth_bps", Engine.Json.Float v)
let floats xs = Engine.Json.List (List.map (fun v -> Engine.Json.Float v) xs)
let bw_only v ~quick:_ = [ bw v ]

let wave_params v cbr_fraction ~quick:_ =
  [ bw v; ("cbr_fraction", Engine.Json.Float cbr_fraction) ]

let analytic ~quick:_ = [ ("analytic", Engine.Json.Bool true) ]
let no_params ~quick:_ = []

(* Built on demand, never held at module level: every benchmark process
   initializes this module, so a top-level list of records would sit in
   every workload's live heap. *)
let registry () =
  let open Engine.Json in
  [
    single "fig3" (bw_only bw_restart) fig3;
    pair "fig4" ~also:[ "fig5" ]
      (fun ~quick -> [ bw bw_restart; ("gammas", floats (gamma_sweep quick)) ])
      fig4_fig5;
    single "fig6" (bw_only bw_flash) fig6;
    single "fig7" (wave_params bw_wave_31 (2. /. 3.)) fig7;
    single "fig8" (wave_params bw_wave_31 (2. /. 3.)) fig8;
    single "fig9" (wave_params bw_wave_31 (2. /. 3.)) fig9;
    single "fig10" (bw_only bw_fair) fig10;
    single "fig11" analytic fig11;
    single "fig12" (bw_only bw_fair) fig12;
    single "fig13" (bw_only bw_double) fig13;
    pair "fig14" ~also:[ "fig15" ] (bw_only bw_wave_31) fig14_fig15;
    single "fig16" (wave_params bw_wave_101 0.9) fig16;
    single "fig17" (bw_only bw_pattern) fig17;
    single "fig18" (bw_only bw_pattern) fig18;
    single "fig19" (bw_only bw_pattern) fig19;
    single "fig20" analytic fig20;
    single "table-transient" no_params Transient.table;
    single "ablation-self-clocking" (bw_only bw_restart) ablation_self_clocking;
    single "ablation-conservative-c" (bw_only bw_restart)
      ablation_conservative_c;
    single "ablation-droptail"
      (fun ~quick:_ ->
        [ ("queue", String "droptail"); ("gammas", floats gammas_quick) ])
      ablation_droptail;
    single "ablation-sawtooth" (wave_params bw_wave_31 (2. /. 3.))
      ablation_sawtooth;
    single "ablation-response-sim" no_params ablation_response_sim;
    single "ablation-rtt-fairness" no_params ablation_rtt_fairness;
    single "ablation-binomial-l" no_params ablation_binomial_l;
    single "ablation-queue-dynamics" no_params ablation_queue_dynamics;
    single "ablation-10to1-fairness"
      (fun ~quick:_ ->
        [ ("bandwidths_bps", floats [ bw_wave_31; bw_wave_101 ]) ])
      ablation_10to1_fairness;
    pair "manyflow"
      (fun ~quick ->
        [
          ( "flows",
            List
              (List.map (fun n -> Float (float_of_int n)) (Manyflow.ns ~quick))
          );
          ("per_flow_bw_bps", Float 16000.);
          ("engine", String "soa");
        ])
      manyflow_tables;
    single "zoo-gauntlet"
      (fun ~quick:_ ->
        [
          bw bw_zoo;
          ("families", List (List.map (fun (n, _) -> String n) zoo_families));
        ])
      zoo_gauntlet;
  ]

let ids e = e.id :: e.also
let names = List.concat_map ids (registry ())
let all_units = List.map (fun e -> e.id) (registry ())

(* The id that runs every unit, in registry order. *)
let all_id = "all"

(* The unit whose sweep answers [name]. *)
let lookup name = List.find_opt (fun e -> List.mem name (ids e)) (registry ())

(* The units [name] runs, or [None] for an unknown id. *)
let units_of name =
  if String.equal name all_id then Some (registry ())
  else Option.map (fun e -> [ e ]) (lookup name)

let unit_key ~quick cache e =
  Result_cache.key cache ~experiment:e.id ~quick ~params:(e.params ~quick)

let uncached_units ~quick cache name =
  Option.map
    (List.filter_map (fun e ->
         if Result_cache.mem cache ~key:(unit_key ~quick cache e) then None
         else Some e.id))
    (units_of name)

(* ------------------------------------------------------------------ *)
(* Manifested and cached runs                                          *)
(* ------------------------------------------------------------------ *)

(* The combined id embeds one parameter object per experiment id, so an
   "all" manifest carries the same provenance (and the cache the same key
   material) as the per-experiment manifests put together. *)
let params ?(quick = false) name =
  if String.equal name all_id then
    List.concat_map
      (fun e ->
        let p = Engine.Json.Obj (e.params ~quick) in
        List.map (fun id -> (id, p)) (ids e))
      (registry ())
  else match lookup name with Some e -> e.params ~quick | None -> []

(* One unit through [cache].  The key and the stored experiment are the
   unit's id, whichever of its ids was asked for. *)
let run_unit ~quick ?pool ?cache e =
  match cache with
  | None -> e.run ~quick ~pool
  | Some cache -> (
    let key = unit_key ~quick cache e in
    match Result_cache.lookup cache ~key with
    | Some tables -> tables
    | None ->
      let tables = e.run ~quick ~pool in
      Result_cache.store cache ~key ~experiment:e.id ~quick tables;
      tables)

let run_cached ?stream ?(quick = false) ?pool ?cache ?now:_ name =
  Option.map
    (List.concat_map (fun e ->
         let tables = run_unit ~quick ?pool ?cache e in
         Option.iter (fun f -> List.iter f tables) stream;
         tables))
    (units_of name)

let cache_delta cache f =
  let before =
    Option.map (fun c -> (Result_cache.hits c, Result_cache.misses c)) cache
  in
  let result = f () in
  let info =
    Option.map
      (fun c ->
        let h0, m0 = Option.get before in
        ( Result_cache.hits c - h0,
          Result_cache.misses c - m0,
          Result_cache.fingerprint c ))
      cache
  in
  (result, info)

(* [now] supplies the wall clock for the manifest's (non-digested) timing
   section; it defaults to [Sys.time] so the core library stays free of a
   unix dependency — the CLI passes a real wall clock. *)
let run_to_dir ?stream ?(quick = false) ?pool ?cache ?backend
    ?(emit = Manifest.Both) ?(now = Sys.time) ~dir ~jobs name =
  let t0 = now () in
  let result, cache_info =
    cache_delta cache (fun () -> run_cached ?stream ~quick ?pool ?cache name)
  in
  Option.map
    (fun tables ->
      let wall_s = now () -. t0 in
      let manifest_path =
        Manifest.write ?cache:cache_info ?backend ~dir ~experiment:name ~quick
          ~params:(params ~quick name) ~emit ~jobs ~wall_s tables
      in
      (manifest_path, tables))
    result

type env = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  db : Netsim.Dumbbell.t;
}

let default_rtt = 0.05

let make_env ?(seed = 1) ?(rtt = default_rtt) ?(queue = Netsim.Dumbbell.Red)
    ~bandwidth () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let config =
    { (Netsim.Dumbbell.default_config ~bandwidth) with Netsim.Dumbbell.rtt; queue }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng:(Engine.Rng.split rng) config in
  { sim; rng; db }

(* Start each flow at a uniform random time in the first 2 s. *)
let start_staggered env flows =
  List.iter
    (fun (flow : Cc.Flow.t) ->
      let jitter = Engine.Rng.uniform env.rng ~lo:0. ~hi:2. in
      Engine.Sim.at env.sim jitter flow.Cc.Flow.start)
    flows

(* [n] reverse-direction TCP flows (right to left), staggered. *)
let add_reverse_traffic env ~n =
  let flows =
    List.init n (fun _ ->
        Protocol.spawn ~reverse:true (Protocol.tcp ~gamma:2.) env.db)
  in
  start_staggered env flows;
  flows

(* Loss fraction at the forward bottleneck, binned at [bin] seconds. *)
let loss_probe env ~bin =
  let link = Netsim.Dumbbell.bottleneck env.db in
  Engine.Probe.sample_ratio env.sim ~every:bin
    ~num:(fun () -> float_of_int (Netsim.Link.drops link))
    ~den:(fun () -> float_of_int (Netsim.Link.arrivals link))

let aggregate_rate_probe env ~bin flows =
  let total () =
    List.fold_left
      (fun acc (f : Cc.Flow.t) -> acc +. f.Cc.Flow.bytes_delivered ())
      0. flows
  in
  Engine.Probe.sample_rate env.sim ~every:bin total

(* ------------------------------------------------------------------ *)
(* CBR restart (Figures 3-5)                                           *)
(* ------------------------------------------------------------------ *)

type cbr_restart_result = {
  loss_series : Engine.Timeseries.t;
  steady_loss : float;
  stab : Metrics.stabilization option;
  rtt : float;
}

let make_cbr env ~rate =
  let left, right = Netsim.Dumbbell.add_host_pair env.db in
  let flow_id = Netsim.Dumbbell.fresh_flow env.db in
  Cc.Cbr.create ~sim:env.sim ~src:left ~dst:right ~flow:flow_id ~rate
    ~pkt_size:1000

let cbr_restart ?(seed = 1) ?(queue = Netsim.Dumbbell.Red) ?(n_flows = 20)
    ?(duration = 300.) ~protocol ~bandwidth () =
  let env = make_env ~seed ~queue ~bandwidth () in
  let rtt = (Netsim.Dumbbell.config env.db).Netsim.Dumbbell.rtt in
  let flows = List.init n_flows (fun _ -> Protocol.spawn protocol env.db) in
  start_staggered env flows;
  ignore (add_reverse_traffic env ~n:2);
  let cbr = make_cbr env ~rate:(bandwidth /. 2.) in
  let cbr_flow = Cc.Cbr.flow cbr in
  Engine.Sim.at env.sim 0. cbr_flow.Cc.Flow.start;
  Engine.Sim.at env.sim 150. cbr_flow.Cc.Flow.stop;
  Engine.Sim.at env.sim 180. cbr_flow.Cc.Flow.start;
  let loss_series = loss_probe env ~bin:(10. *. rtt) in
  Engine.Sim.run ~until:duration env.sim;
  let steady_loss = Metrics.mean_between loss_series ~lo:50. ~hi:150. in
  let stab =
    Metrics.stabilization ~loss_series ~t_event:180. ~steady_loss ~rtt
  in
  { loss_series; steady_loss; stab; rtt }

(* ------------------------------------------------------------------ *)
(* Flash crowd (Figure 6)                                              *)
(* ------------------------------------------------------------------ *)

type flash_crowd_result = {
  bg_rate : Engine.Timeseries.t;
  crowd_rate : Engine.Timeseries.t;
  crowd_started : int;
  crowd_completed : int;
  mean_completion : float;
}

let flash_crowd ?(seed = 1) ?(duration = 60.) ~protocol ~bandwidth () =
  let env = make_env ~seed ~bandwidth () in
  let flows = List.init 10 (fun _ -> Protocol.spawn protocol env.db) in
  start_staggered env flows;
  ignore (add_reverse_traffic env ~n:2);
  let crowd =
    Cc.Flash_crowd.create ~sim:env.sim ~rng:(Engine.Rng.split env.rng)
      ~dumbbell:env.db ~start:25. Cc.Flash_crowd.default_config
  in
  let bg_rate = aggregate_rate_probe env ~bin:0.5 flows in
  let crowd_rate =
    Engine.Probe.sample_rate env.sim ~every:0.5 (fun () ->
        Cc.Flash_crowd.bytes_delivered crowd)
  in
  Engine.Sim.run ~until:duration env.sim;
  {
    bg_rate;
    crowd_rate;
    crowd_started = Cc.Flash_crowd.flows_started crowd;
    crowd_completed = Cc.Flash_crowd.flows_completed crowd;
    mean_completion = Cc.Flash_crowd.mean_completion_time crowd;
  }

(* ------------------------------------------------------------------ *)
(* Oscillating bandwidth (Figures 7-9, 14-16)                          *)
(* ------------------------------------------------------------------ *)

type wave_shape = Square | Sawtooth | Reverse_sawtooth

type square_wave_result = {
  per_flow : (string * float) list;
  group_mean : string -> float;
  utilization : float;
  drop_rate : float;
}

(* Drive the CBR source through one shape period starting at [t0].  The
   ON half occupies [period / 2]; sawtooth shapes step the rate in eight
   increments across the ON half. *)
let rec drive_cbr env cbr ~shape ~period ~peak ~t0 ~stop =
  if t0 < stop then begin
    let half = period /. 2. in
    let flow = Cc.Cbr.flow cbr in
    (match shape with
    | Square ->
      Engine.Sim.at env.sim t0 (fun () ->
          Cc.Cbr.set_rate cbr peak;
          flow.Cc.Flow.start ());
      Engine.Sim.at env.sim (t0 +. half) flow.Cc.Flow.stop
    | Sawtooth ->
      let steps = 8 in
      for i = 0 to steps - 1 do
        let rate = peak *. float_of_int (i + 1) /. float_of_int steps in
        let at = t0 +. (half *. float_of_int i /. float_of_int steps) in
        Engine.Sim.at env.sim at (fun () ->
            Cc.Cbr.set_rate cbr rate;
            flow.Cc.Flow.start ())
      done;
      Engine.Sim.at env.sim (t0 +. half) flow.Cc.Flow.stop
    | Reverse_sawtooth ->
      let steps = 8 in
      for i = 0 to steps - 1 do
        let rate = peak *. float_of_int (steps - i) /. float_of_int steps in
        let at = t0 +. (half *. float_of_int i /. float_of_int steps) in
        Engine.Sim.at env.sim at (fun () ->
            Cc.Cbr.set_rate cbr rate;
            flow.Cc.Flow.start ())
      done;
      Engine.Sim.at env.sim (t0 +. half) flow.Cc.Flow.stop);
    drive_cbr env cbr ~shape ~period ~peak ~t0:(t0 +. period) ~stop
  end

let square_wave ?(seed = 1) ?(shape = Square) ?measure ~flows ~bandwidth
    ~cbr_fraction ~period () =
  if cbr_fraction <= 0. || cbr_fraction >= 1. then
    invalid_arg "square_wave: cbr_fraction in (0,1)";
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "square_wave: period must be finite and positive";
  let env = make_env ~seed ~bandwidth () in
  let tagged =
    List.concat_map
      (fun (protocol, count) ->
        List.init count (fun _ ->
            (Protocol.name protocol, Protocol.spawn protocol env.db)))
      flows
  in
  start_staggered env (List.map snd tagged);
  ignore (add_reverse_traffic env ~n:2);
  let peak = cbr_fraction *. bandwidth in
  let cbr = make_cbr env ~rate:peak in
  let warmup = 20. in
  let t_measure =
    match measure with
    | Some m -> m
    | None -> Float.max 100. (8. *. period)
  in
  let t_end = warmup +. t_measure in
  drive_cbr env cbr ~shape ~period ~peak ~t0:warmup ~stop:t_end;
  let link = Netsim.Dumbbell.bottleneck env.db in
  (* Snapshot at the start of the measurement window. *)
  let snapshots = ref [] and link0 = ref (0., 0, 0) in
  Engine.Sim.at env.sim warmup (fun () ->
      snapshots :=
        List.map (fun (_, f) -> f.Cc.Flow.bytes_delivered ()) tagged;
      link0 :=
        ( Netsim.Link.bytes_out link,
          Netsim.Link.arrivals link,
          Netsim.Link.drops link ));
  Engine.Sim.run ~until:t_end env.sim;
  let n_flows = List.length tagged in
  (* Average bandwidth left for the flows: the CBR duty cycle is 1/2 over
     each period (also for the sawtooth shapes, whose mean rate across the
     ON half is about (steps+1)/2steps of the peak; we use the exact mean). *)
  let duty =
    match shape with
    | Square -> 0.5
    | Sawtooth | Reverse_sawtooth -> 0.5 *. (9. /. 16.)
  in
  let available = bandwidth -. (duty *. peak) in
  let fair_share = available /. float_of_int n_flows in
  let per_flow =
    List.map2
      (fun (name, f) snap0 ->
        let thr =
          (f.Cc.Flow.bytes_delivered () -. snap0) *. 8. /. t_measure
        in
        (name, thr /. fair_share))
      tagged !snapshots
  in
  let group_mean name =
    let matching = List.filter (fun (n, _) -> n = name) per_flow in
    match matching with
    | [] -> 0.
    | _ ->
      List.fold_left (fun acc (_, v) -> acc +. v) 0. matching
      /. float_of_int (List.length matching)
  in
  let bytes0, arr0, drop0 = !link0 in
  let cbr_bytes =
    (* CBR bytes traversed the same bottleneck; subtract them from the
       aggregate to get the flows' utilization of their available share. *)
    (Cc.Cbr.flow cbr).Cc.Flow.bytes_delivered ()
  in
  let total_bytes = Netsim.Link.bytes_out link -. bytes0 -. cbr_bytes in
  let utilization =
    Float.max 0. (total_bytes *. 8. /. (t_measure *. available))
  in
  let arr1 = Netsim.Link.arrivals link and drop1 = Netsim.Link.drops link in
  let drop_rate =
    if arr1 > arr0 then float_of_int (drop1 - drop0) /. float_of_int (arr1 - arr0)
    else 0.
  in
  { per_flow; group_mean; utilization; drop_rate }

(* ------------------------------------------------------------------ *)
(* Transient fairness (Figures 10, 12)                                 *)
(* ------------------------------------------------------------------ *)

let fair_convergence ?(seed = 1) ?pool ?(n_trials = 3) ?(cap = 600.)
    ?(delta = 0.1) ~protocol ~bandwidth () =
  let t_join = 40. in
  let one_trial seed =
    let env = make_env ~seed ~bandwidth () in
    let f1 = Protocol.spawn protocol env.db in
    (* The paper's premise is an (B - b0, b0) allocation between two
       *established* flows: the second starts at its initial window in
       congestion avoidance, not in slow-start. *)
    let f2 = Protocol.spawn ~ca_start:true protocol env.db in
    Engine.Sim.at env.sim 0. f1.Cc.Flow.start;
    Engine.Sim.at env.sim t_join f2.Cc.Flow.start;
    let bin = 0.5 in
    let rate f =
      Engine.Probe.sample_rate env.sim ~every:bin (fun () ->
          f.Cc.Flow.bytes_delivered ())
    in
    let r1 = rate f1 and r2 = rate f2 in
    Engine.Sim.run ~until:(t_join +. cap) env.sim;
    Metrics.fair_convergence ~rate1:r1 ~rate2:r2 ~t_start:t_join ~delta
  in
  (* Each trial is a closed job with its own seed; running them on a pool
     changes wall clock only, never the per-trial results. *)
  let trial_seeds = List.init n_trials (fun i -> seed + (1000 * i)) in
  let outcomes =
    match pool with
    | None -> List.map one_trial trial_seeds
    | Some pool -> Engine.Pool.map_list pool one_trial trial_seeds
  in
  let times = List.filter_map Fun.id outcomes in
  match times with
  | [] -> (cap, 0)
  | _ ->
    ( List.fold_left ( +. ) 0. times /. float_of_int (List.length times),
      List.length times )

(* ------------------------------------------------------------------ *)
(* Bandwidth doubling (Figure 13)                                      *)
(* ------------------------------------------------------------------ *)

type fk_result = { f20 : float; f200 : float }

let bandwidth_double ?(seed = 1) ?(t_stop = 300.) ~protocol ~bandwidth () =
  let env = make_env ~seed ~bandwidth () in
  let rtt = (Netsim.Dumbbell.config env.db).Netsim.Dumbbell.rtt in
  let flows = List.init 10 (fun _ -> Protocol.spawn protocol env.db) in
  start_staggered env flows;
  ignore (add_reverse_traffic env ~n:2);
  let stay, leave =
    List.filteri (fun i _ -> i < 5) flows,
    List.filteri (fun i _ -> i >= 5) flows
  in
  let sum_delivered fs =
    List.fold_left
      (fun acc (f : Cc.Flow.t) -> acc +. f.Cc.Flow.bytes_delivered ())
      0. fs
  in
  let bytes_at_event = ref 0. and bytes_20 = ref 0. and bytes_200 = ref 0. in
  Engine.Sim.at env.sim t_stop (fun () ->
      List.iter (fun (f : Cc.Flow.t) -> f.Cc.Flow.stop ()) leave;
      bytes_at_event := sum_delivered stay);
  Engine.Sim.at env.sim (t_stop +. (20. *. rtt)) (fun () ->
      bytes_20 := sum_delivered stay);
  Engine.Sim.at env.sim (t_stop +. (200. *. rtt)) (fun () ->
      bytes_200 := sum_delivered stay);
  Engine.Sim.run ~until:(t_stop +. (210. *. rtt)) env.sim;
  {
    f20 =
      Metrics.f_k ~bytes_at_event:!bytes_at_event ~bytes_after:!bytes_20 ~k:20
        ~rtt ~bandwidth;
    f200 =
      Metrics.f_k ~bytes_at_event:!bytes_at_event ~bytes_after:!bytes_200
        ~k:200 ~rtt ~bandwidth;
  }

(* ------------------------------------------------------------------ *)
(* Designed loss patterns (Figures 17-19)                              *)
(* ------------------------------------------------------------------ *)

type pattern =
  | Counts of int list
  | Phases of (float * int) list

type loss_pattern_result = {
  rate_02s : Engine.Timeseries.t;
  rate_1s : Engine.Timeseries.t;
  avg_throughput : float;
  smoothness : float;
}

let loss_pattern ?(seed = 1) ?(duration = 60.) ~protocol ~pattern ~bandwidth
    () =
  (* The queue thunk runs inside Dumbbell.create, which needs the sim that
     make_env creates; build the env in two steps instead. *)
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let make_queue () =
    let inner = Netsim.Droptail.make ~capacity:1000 in
    match pattern with
    | Counts counts -> Netsim.Loss_pattern.by_count ~pattern:counts inner
    | Phases phases -> Netsim.Loss_pattern.by_phase ~sim ~phases inner
  in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth) with
      Netsim.Dumbbell.queue = Netsim.Dumbbell.Custom make_queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng:(Engine.Rng.split rng) config in
  let env = { sim; rng; db } in
  let flow = Protocol.spawn protocol env.db in
  Engine.Sim.at env.sim 0. flow.Cc.Flow.start;
  let warmup = 10. in
  let rate_02s =
    Engine.Probe.sample_rate env.sim ~every:0.2 (fun () ->
        flow.Cc.Flow.bytes_sent ())
  in
  let rate_1s =
    Engine.Probe.sample_rate env.sim ~every:1.0 (fun () ->
        flow.Cc.Flow.bytes_sent ())
  in
  let bytes0 = ref 0. in
  Engine.Sim.at env.sim warmup (fun () ->
      bytes0 := flow.Cc.Flow.bytes_delivered ());
  Engine.Sim.run ~until:duration env.sim;
  let avg_throughput =
    (flow.Cc.Flow.bytes_delivered () -. !bytes0) /. (duration -. warmup)
  in
  let measured_rates = Engine.Timeseries.create () in
  List.iter (fun (time, v) ->
      if time >= warmup then Engine.Timeseries.add measured_rates ~time v)
    (Engine.Timeseries.to_list rate_02s);
  {
    rate_02s;
    rate_1s;
    avg_throughput;
    smoothness = Metrics.smoothness ~floor:100. measured_rates;
  }

type config = {
  arrival_rate : float;
  duration : float;
  transfer_pkts : int;
  pkt_size : int;
  pool_size : int;
}

let default_config =
  {
    arrival_rate = 200.;
    duration = 5.;
    transfer_pkts = 10;
    pkt_size = 1000;
    pool_size = 20;
  }

type t = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  dumbbell : Netsim.Dumbbell.t;
  cfg : config;
  pool : (Netsim.Node.t * Netsim.Node.t) array;
  mutable next_pair : int;
  mutable started : int;
  mutable completed : int;
  mutable bytes : float;
  completion_times : Engine.Stats.t;
  senders : (int, Flow_soa.t * float * int) Hashtbl.t;
      (* flow -> sender, start time, host pair *)
  mutable flow_cfg : Window_cc.config;  (* shared by every transfer *)
}

let complete t flow_id =
  match Hashtbl.find_opt t.senders flow_id with
  | Some (sender, t0, pair) ->
    t.completed <- t.completed + 1;
    Engine.Stats.add t.completion_times (Engine.Sim.now t.sim -. t0);
    t.bytes <- t.bytes +. Flow_soa.bytes_delivered sender 0;
    Hashtbl.remove t.senders flow_id;
    let src, dst = t.pool.(pair) in
    Netsim.Node.detach src ~flow:flow_id;
    Netsim.Node.detach dst ~flow:flow_id
  | None -> ()

let launch_flow t =
  let pair = t.next_pair in
  let src, dst = t.pool.(pair) in
  t.next_pair <- (pair + 1) mod Array.length t.pool;
  let flow_id = Netsim.Dumbbell.fresh_flow t.dumbbell in
  let sender =
    Flow_soa.create ~sim:t.sim ~src ~dst ~base:flow_id ~n:1 t.flow_cfg
  in
  Hashtbl.replace t.senders flow_id (sender, Engine.Sim.now t.sim, pair);
  t.started <- t.started + 1;
  Flow_soa.start sender 0

let rec schedule_arrival t ~deadline =
  let gap = Engine.Rng.exponential t.rng ~mean:(1. /. t.cfg.arrival_rate) in
  let when_ = Engine.Sim.now t.sim +. gap in
  if when_ < deadline then
    Engine.Sim.at t.sim when_ (fun () ->
        launch_flow t;
        schedule_arrival t ~deadline)

let create ~sim ~rng ~dumbbell ~start cfg =
  if cfg.arrival_rate <= 0. || cfg.duration <= 0. then
    invalid_arg "Flash_crowd.create";
  let pool =
    Array.init cfg.pool_size (fun _ -> Netsim.Dumbbell.add_host_pair dumbbell)
  in
  let t =
    {
      sim;
      rng;
      dumbbell;
      cfg;
      pool;
      next_pair = 0;
      started = 0;
      completed = 0;
      bytes = 0.;
      completion_times = Engine.Stats.create ();
      senders = Hashtbl.create 256;
      flow_cfg = Window_cc.default_config (Window_cc.tcp_compatible_aimd ~b:0.5);
    }
  in
  t.flow_cfg <-
    {
      t.flow_cfg with
      Window_cc.pkt_size = cfg.pkt_size;
      total_pkts = Some cfg.transfer_pkts;
      on_complete = Some (complete t);
    };
  Engine.Sim.at sim start (fun () ->
      schedule_arrival t ~deadline:(start +. cfg.duration));
  t

let flows_started t = t.started
let flows_completed t = t.completed

let bytes_delivered t =
  (* Completed flows contributed on completion; add live flows' progress. *)
  Hashtbl.fold
    (fun _ (sender, _, _) acc -> acc +. Flow_soa.bytes_delivered sender 0)
    t.senders t.bytes

let mean_completion_time t = Engine.Stats.mean t.completion_times

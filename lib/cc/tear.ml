type config = { pkt_size : int; smoothing_rounds : int }

let default_config = { pkt_size = 1000; smoothing_rounds = 8 }
let initial_rtt = 0.2
let initial_rate_pps = 2.
let min_rate_pps = 1. /. 64.

(* ------------------------------------------------------------------ *)
(* Receiver: the emulated TCP window                                    *)
(* ------------------------------------------------------------------ *)

type receiver = {
  r_sim : Engine.Sim.t;
  r_node : Netsim.Node.t;
  r_flow : int;
  r_peer : int;
  r_cfg : config;
  (* emulated TCP state, driven by data arrivals *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable next_expected : int;
  mutable round_arrivals : int;  (* arrivals in the current round *)
  mutable round_start_cwnd : float;
  mutable rounds : float list;  (* per-round cwnd, most recent first *)
  mutable loss_round_guard : float;  (* time before which losses coalesce *)
  mutable rtt_from_sender : float;
  mutable last_ts : float;
  mutable last_ts_arrival : float;
  mutable last_data_time : float;
  mutable watchdog : Engine.Sim.timer;
  mutable watchdog_rtt : float;  (* emulated RTT when [watchdog] was armed *)
}

let receiver_rtt r =
  if r.rtt_from_sender > 0. then r.rtt_from_sender else initial_rtt

(* TEAR weights: like TFRC's WALI, flat over the newer half and linearly
   decaying over the older half. *)
let smoothed_cwnd r =
  let k = r.r_cfg.smoothing_rounds in
  let weight i =
    let half = k / 2 in
    if i < half || k = 1 then 1.
    else float_of_int (k - i) /. float_of_int (k - half + 1)
  in
  let rec go i num den = function
    | [] -> if den = 0. then r.cwnd else num /. den
    | w :: rest ->
      if i >= k then if den = 0. then r.cwnd else num /. den
      else go (i + 1) (num +. (weight i *. w)) (den +. weight i) rest
  in
  go 0 0. 0. r.rounds

let report_rate r =
  let now = Engine.Sim.now r.r_sim in
  let rate = Float.max 0.5 (smoothed_cwnd r /. receiver_rtt r) in
  let fb =
    Netsim.Packet.Tear_fb
      {
        rate_pps = rate;
        timestamp_echo = r.last_ts;
        delay_echo = now -. r.last_ts_arrival;
      }
  in
  Netsim.Node.inject r.r_node
    (Netsim.Packet.make ~size:40 ~flow:r.r_flow ~src:(Netsim.Node.id r.r_node)
       ~dst:r.r_peer ~payload:fb ())

let close_round r =
  r.rounds <- r.cwnd :: r.rounds;
  if List.length r.rounds > r.r_cfg.smoothing_rounds then
    r.rounds <-
      List.filteri (fun i _ -> i < r.r_cfg.smoothing_rounds) r.rounds;
  r.round_arrivals <- 0;
  r.round_start_cwnd <- r.cwnd;
  (* TEAR reports once per round (per emulated RTT), far less often than
     one ack per packet. *)
  report_rate r

let on_congestion r =
  let now = Engine.Sim.now r.r_sim in
  if now >= r.loss_round_guard then begin
    (* Emulated fast recovery: one halving per round of congestion. *)
    r.ssthresh <- Float.max 2. (r.cwnd /. 2.);
    r.cwnd <- r.ssthresh;
    r.loss_round_guard <- now +. receiver_rtt r;
    close_round r
  end

let on_in_order_arrival r =
  if r.cwnd < r.ssthresh then r.cwnd <- r.cwnd +. 1.
  else r.cwnd <- r.cwnd +. (1. /. r.cwnd);
  r.round_arrivals <- r.round_arrivals + 1;
  if float_of_int r.round_arrivals >= r.round_start_cwnd then close_round r

let receiver_handle r (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Tfrc_data { timestamp; rtt_estimate } ->
    let now = Engine.Sim.now r.r_sim in
    if rtt_estimate > 0. then r.rtt_from_sender <- rtt_estimate;
    r.last_ts <- timestamp;
    r.last_ts_arrival <- now;
    r.last_data_time <- now;
    let seq = pkt.Netsim.Packet.seq in
    if seq > r.next_expected then begin
      (* Holes are losses on our FIFO paths. *)
      on_congestion r;
      r.next_expected <- seq + 1
    end
    else if seq = r.next_expected then begin
      r.next_expected <- seq + 1;
      on_in_order_arrival r
    end
  | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    ()

(* Timeout emulation: when data stops arriving entirely for several
   emulated RTTs, collapse the window like TCP's RTO would.  The check
   re-arms itself every four emulated RTTs while the flow runs; [stop]
   disarms it. *)
let arm_watchdog r =
  let rtt = receiver_rtt r in
  r.watchdog_rtt <- rtt;
  Engine.Sim.arm_after r.watchdog (4. *. rtt)

let watchdog r =
  let now = Engine.Sim.now r.r_sim in
  if r.last_data_time > 0. && now -. r.last_data_time > 4. *. r.watchdog_rtt
  then begin
    r.ssthresh <- Float.max 2. (r.cwnd /. 2.);
    r.cwnd <- 1.;
    close_round r
  end;
  arm_watchdog r

(* ------------------------------------------------------------------ *)
(* Sender: transmit at the reported rate                                *)
(* ------------------------------------------------------------------ *)

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  receiver : receiver;
  mutable running : bool;
  mutable x : float;  (* pkts/s *)
  mutable srtt : float;
  mutable rtt_valid : bool;
  mutable seq : int;
  mutable send_timer : Engine.Sim.timer;
  mutable pkts_sent : int;
  mutable bytes_sent : float;
  mutable bytes_delivered : float;
}

let sender_rtt t = if t.rtt_valid then t.srtt else initial_rtt

let send_next t =
  if t.running then begin
    let pkt =
      Netsim.Packet.make ~size:t.cfg.pkt_size ~seq:t.seq ~flow:t.flow_id
        ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst)
        ~payload:
          (Netsim.Packet.Tfrc_data
             {
               timestamp = Engine.Sim.now t.sim;
               rtt_estimate = (if t.rtt_valid then t.srtt else 0.);
             })
        ()
    in
    t.seq <- t.seq + 1;
    t.pkts_sent <- t.pkts_sent + 1;
    t.bytes_sent <- t.bytes_sent +. float_of_int t.cfg.pkt_size;
    Netsim.Node.inject t.src pkt;
    Engine.Sim.arm_after t.send_timer (1. /. Float.max min_rate_pps t.x)
  end

let handle_fb t (pkt : Netsim.Packet.t) =
  if t.running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Tear_fb { rate_pps; timestamp_echo; delay_echo } ->
      let now = Engine.Sim.now t.sim in
      let sample = now -. timestamp_echo -. delay_echo in
      if sample > 0. then
        if t.rtt_valid then t.srtt <- (0.9 *. t.srtt) +. (0.1 *. sample)
        else begin
          t.srtt <- sample;
          t.rtt_valid <- true
        end;
      t.x <- Float.max min_rate_pps rate_pps
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
    | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tfrc_fb _ ->
      ()

let create ~sim ~src ~dst ~flow cfg =
  if cfg.smoothing_rounds < 1 then invalid_arg "Tear.create: smoothing_rounds";
  let receiver =
    {
      r_sim = sim;
      r_node = dst;
      r_flow = flow;
      r_peer = Netsim.Node.id src;
      r_cfg = cfg;
      cwnd = 2.;
      ssthresh = 1e9;
      next_expected = 0;
      round_arrivals = 0;
      round_start_cwnd = 2.;
      rounds = [];
      loss_round_guard = 0.;
      rtt_from_sender = 0.;
      last_ts = 0.;
      last_ts_arrival = 0.;
      last_data_time = 0.;
      watchdog = Engine.Sim.timer sim ignore;
      watchdog_rtt = initial_rtt;
    }
  in
  receiver.watchdog <- Engine.Sim.timer sim (fun () -> watchdog receiver);
  let t =
    {
      sim;
      cfg;
      src;
      dst;
      flow_id = flow;
      receiver;
      running = false;
      x = initial_rate_pps;
      srtt = 0.;
      rtt_valid = false;
      seq = 0;
      send_timer = Engine.Sim.timer sim ignore;
      pkts_sent = 0;
      bytes_sent = 0.;
      bytes_delivered = 0.;
    }
  in
  t.send_timer <- Engine.Sim.timer sim (fun () -> send_next t);
  Netsim.Node.attach src ~flow (handle_fb t);
  (* Track delivery at the receiver for the Flow counters. *)
  let inner = receiver_handle receiver in
  Netsim.Node.attach dst ~flow (fun pkt ->
      (match pkt.Netsim.Packet.payload with
      | Netsim.Packet.Tfrc_data _ ->
        t.bytes_delivered <-
          t.bytes_delivered +. float_of_int pkt.Netsim.Packet.size
      | _ -> ());
      inner pkt);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    send_next t;
    arm_watchdog t.receiver
  end

let stop t =
  t.running <- false;
  Engine.Sim.disarm t.send_timer;
  Engine.Sim.disarm t.receiver.watchdog

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = Printf.sprintf "tear(%d)" t.cfg.smoothing_rounds;
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> t.bytes_sent);
    bytes_delivered = (fun () -> t.bytes_delivered);
    srtt = (fun () -> sender_rtt t);
    stats =
      Flow.basic_stats
        ~pkts_sent:(fun () -> t.pkts_sent)
        ~bytes_sent:(fun () -> t.bytes_sent)
        ~bytes_delivered:(fun () -> t.bytes_delivered)
        ~srtt:(fun () -> sender_rtt t);
  }

let rate_pps t = t.x
let emulated_cwnd t = t.receiver.cwnd
let srtt t = sender_rtt t

type config = { pkt_size : int; smoothing_rounds : int }

let default_config = { pkt_size = 1000; smoothing_rounds = 8 }
let initial_rate_pps = 2.
let min_rate_pps = 1. /. 64.

(* ------------------------------------------------------------------ *)
(* Receiver: the emulated TCP window                                    *)
(* ------------------------------------------------------------------ *)

type receiver = {
  cfg : config;
  (* emulated TCP state, driven by data arrivals *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable next_expected : int;
  mutable round_arrivals : int;  (* arrivals in the current round *)
  mutable round_start_cwnd : float;
  mutable rounds : float list;  (* per-round cwnd, most recent first *)
  mutable loss_round_guard : float;  (* time before which losses coalesce *)
  mutable last_data_time : float;
  mutable watchdog : Engine.Sim.timer;
  mutable watchdog_rtt : float;  (* emulated RTT when [watchdog] was armed *)
}

(* The sender only keeps the reported rate; the send loop, its counters,
   the RTT estimate and the timestamp echo are [Rate_flow]'s. *)
type sender = { receiver : receiver; mutable x : float (* pkts/s *) }
type t = sender Rate_flow.t

(* TEAR weights: like TFRC's WALI, flat over the newer half and linearly
   decaying over the older half. *)
let smoothed_cwnd r =
  let k = r.cfg.smoothing_rounds in
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

let report_rate t r =
  let rate = Float.max 0.5 (smoothed_cwnd r /. Rate_flow.receiver_rtt t) in
  Rate_flow.reply t
    (Netsim.Packet.Tear_fb
       {
         rate_pps = rate;
         timestamp_echo = Rate_flow.timestamp_echo t;
         delay_echo = Rate_flow.delay_echo t;
       })

let close_round t r =
  r.rounds <- r.cwnd :: r.rounds;
  if List.length r.rounds > r.cfg.smoothing_rounds then
    r.rounds <- List.filteri (fun i _ -> i < r.cfg.smoothing_rounds) r.rounds;
  r.round_arrivals <- 0;
  r.round_start_cwnd <- r.cwnd;
  (* TEAR reports once per round (per emulated RTT), far less often than
     one ack per packet. *)
  report_rate t r

let on_congestion t r =
  let now = Rate_flow.now t in
  if now >= r.loss_round_guard then begin
    (* Emulated fast recovery: one halving per round of congestion. *)
    r.ssthresh <- Float.max 2. (r.cwnd /. 2.);
    r.cwnd <- r.ssthresh;
    r.loss_round_guard <- now +. Rate_flow.receiver_rtt t;
    close_round t r
  end

let on_in_order_arrival t r =
  if r.cwnd < r.ssthresh then r.cwnd <- r.cwnd +. 1.
  else r.cwnd <- r.cwnd +. (1. /. r.cwnd);
  r.round_arrivals <- r.round_arrivals + 1;
  if float_of_int r.round_arrivals >= r.round_start_cwnd then close_round t r

let receive t (pkt : Netsim.Packet.t) =
  let r = (Rate_flow.state t).receiver in
  let now = Rate_flow.now t in
  Rate_flow.note_echo t ~now pkt;
  r.last_data_time <- now;
  let seq = pkt.Netsim.Packet.seq in
  if seq > r.next_expected then begin
    (* Holes are losses on our FIFO paths. *)
    on_congestion t r;
    r.next_expected <- seq + 1
  end
  else if seq = r.next_expected then begin
    r.next_expected <- seq + 1;
    on_in_order_arrival t r
  end

(* Timeout emulation: when data stops arriving entirely for several
   emulated RTTs, collapse the window like TCP's RTO would.  The check
   re-arms itself every four emulated RTTs while the flow runs; [stop]
   disarms it. *)
let arm_watchdog t =
  let r = (Rate_flow.state t).receiver in
  let rtt = Rate_flow.receiver_rtt t in
  r.watchdog_rtt <- rtt;
  Engine.Sim.arm_after r.watchdog (4. *. rtt)

let watchdog t r =
  let now = Rate_flow.now t in
  if r.last_data_time > 0. && now -. r.last_data_time > 4. *. r.watchdog_rtt
  then begin
    r.ssthresh <- Float.max 2. (r.cwnd /. 2.);
    r.cwnd <- 1.;
    close_round t r
  end;
  arm_watchdog t

(* ------------------------------------------------------------------ *)
(* Sender: transmit at the reported rate                                *)
(* ------------------------------------------------------------------ *)

let handle_fb t (pkt : Netsim.Packet.t) =
  if Rate_flow.running t then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Tear_fb { rate_pps; timestamp_echo; delay_echo } ->
      Rate_flow.echo_sample t ~timestamp:timestamp_echo ~delay:delay_echo;
      (Rate_flow.state t).x <- Float.max min_rate_pps rate_pps
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
    | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tfrc_fb _ ->
      ()

let create ~sim ~src ~dst ~flow cfg =
  if cfg.smoothing_rounds < 1 then invalid_arg "Tear.create: smoothing_rounds";
  let receiver =
    {
      cfg;
      cwnd = 2.;
      ssthresh = 1e9;
      next_expected = 0;
      round_arrivals = 0;
      round_start_cwnd = 2.;
      rounds = [];
      loss_round_guard = 0.;
      last_data_time = 0.;
      watchdog = Engine.Sim.timer sim ignore;
      watchdog_rtt = 0.;
    }
  in
  let s = { receiver; x = initial_rate_pps } in
  let t =
    Rate_flow.create ~sim ~src ~dst ~flow ~pkt_size:cfg.pkt_size
      ~payload:Rate_flow.echo_payload
      ~gap:(fun _ -> 1. /. Float.max min_rate_pps s.x)
      ~receive ~on_start:arm_watchdog
      ~on_stop:(fun _ -> Engine.Sim.disarm receiver.watchdog)
      s
  in
  receiver.watchdog <- Engine.Sim.timer sim (fun () -> watchdog t receiver);
  Netsim.Node.attach src ~flow (handle_fb t);
  t

let flow t =
  let rounds = (Rate_flow.state t).receiver.cfg.smoothing_rounds in
  Rate_flow.flow t ~protocol:(Printf.sprintf "tear(%d)" rounds)

let rate_pps t = (Rate_flow.state t).x
let emulated_cwnd t = (Rate_flow.state t).receiver.cwnd
let srtt = Rate_flow.rtt

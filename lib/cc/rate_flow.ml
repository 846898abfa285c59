let initial_rtt = 0.2

type 's t = {
  sim : Engine.Sim.t;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  pkt_size : int;
  state : 's;
  payload : 's t -> Netsim.Packet.payload;
  gap : 's t -> float;
  receive : 's t -> Netsim.Packet.t -> unit;
  on_start : 's t -> unit;
  on_stop : 's t -> unit;
  mutable timer : Engine.Sim.timer;  (* next emission *)
  mutable running : bool;
  mutable seq : int;
  mutable delivered : int;  (* bytes, counted at the destination *)
  mutable srtt : float;
  mutable rtt_valid : bool;
  (* receiver side of the timestamp echo *)
  mutable rtt_from_sender : float;
  mutable last_ts : float;  (* timestamp of the newest data packet *)
  mutable last_ts_arrival : float;  (* when it arrived *)
}

let state t = t.state
let now t = Engine.Sim.now t.sim
let flow_id t = t.flow_id
let running t = t.running
let seq t = t.seq
let rtt t = if t.rtt_valid then t.srtt else initial_rtt

let smooth t ~gain sample =
  if t.rtt_valid then t.srtt <- ((1. -. gain) *. t.srtt) +. (gain *. sample)
  else begin
    t.srtt <- sample;
    t.rtt_valid <- true
  end

let sample_rtt t ~gain ~sent = smooth t ~gain (now t -. sent)

let echo_payload t =
  Netsim.Packet.Tfrc_data
    {
      timestamp = now t;
      rtt_estimate = (if t.rtt_valid then t.srtt else 0.);
    }

let note_echo t ~now (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Tfrc_data { timestamp; rtt_estimate } ->
    if rtt_estimate > 0. then t.rtt_from_sender <- rtt_estimate;
    t.last_ts <- timestamp;
    t.last_ts_arrival <- now
  | _ -> ()

let receiver_rtt t =
  if t.rtt_from_sender > 0. then t.rtt_from_sender else initial_rtt

let timestamp_echo t = t.last_ts
let delay_echo t = now t -. t.last_ts_arrival

let echo_sample t ~timestamp ~delay =
  let sample = now t -. timestamp -. delay in
  if sample > 0. then smooth t ~gain:0.1 sample

let reply t payload =
  Netsim.Node.inject t.dst
    (Netsim.Packet.make ~size:Sink.ack_size ~seq:0 ~flow:t.flow_id
       ~src:(Netsim.Node.id t.dst) ~dst:(Netsim.Node.id t.src) ~payload)

let send t =
  let payload = t.payload t in
  let pkt =
    Netsim.Packet.make ~size:t.pkt_size ~seq:t.seq ~flow:t.flow_id
      ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst) ~payload
  in
  t.seq <- t.seq + 1;
  Netsim.Node.inject t.src pkt;
  Engine.Sim.arm_after t.timer (t.gap t)

let deliver t (pkt : Netsim.Packet.t) =
  t.delivered <- t.delivered + pkt.Netsim.Packet.size;
  t.receive t pkt

let create ~sim ~src ~dst ~flow ~pkt_size
    ?(payload = fun _ -> Netsim.Packet.Plain) ~gap ?(receive = fun _ _ -> ())
    ?(on_start = ignore) ?(on_stop = ignore) state =
  let t =
    {
      sim;
      src;
      dst;
      flow_id = flow;
      pkt_size;
      state;
      payload;
      gap;
      receive;
      on_start;
      on_stop;
      timer = Engine.Sim.timer sim ignore;
      running = false;
      seq = 0;
      delivered = 0;
      srtt = 0.;
      rtt_valid = false;
      rtt_from_sender = 0.;
      last_ts = 0.;
      last_ts_arrival = 0.;
    }
  in
  t.timer <- Engine.Sim.timer sim (fun () -> send t);
  Netsim.Node.attach dst ~flow (deliver t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    send t;
    t.on_start t
  end

let stop t =
  t.running <- false;
  Engine.Sim.disarm t.timer;
  t.on_stop t

let flow ?srtt t ~protocol =
  let srtt = Option.value srtt ~default:(fun () -> rtt t) in
  let bytes_sent () = float_of_int (t.seq * t.pkt_size) in
  let bytes_delivered () = float_of_int t.delivered in
  {
    Flow.id = t.flow_id;
    protocol;
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.seq);
    bytes_sent;
    bytes_delivered;
    srtt;
    stats =
      (fun () ->
        {
          Flow.sent_pkts = t.seq;
          sent_bytes = bytes_sent ();
          delivered_bytes = bytes_delivered ();
          rtx_pkts = 0;
          timeouts = 0;
          fast_rtx = 0;
          stat_srtt = srtt ();
        });
  }

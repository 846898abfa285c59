let log_src = Logs.Src.create "slowcc.rap" ~doc:"RAP events"

module Log = (val Logs.src_log log_src)

type config = { a : float; b : float; pkt_size : int }

let initial_rtt = 0.2 (* used until the first sample *)
let max_rate_pps = 1e6 (* safety cap on the sending rate *)

let tcp_compatible_config ~b =
  if b <= 0. || b >= 1. then invalid_arg "Rap.tcp_compatible_config";
  let a = 4. *. ((2. *. b) -. (b *. b)) /. 3. in
  { a; b; pkt_size = 1000 }

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  mutable running : bool;
  mutable w : float;  (* packets per RTT *)
  mutable srtt : float;
  mutable rtt_valid : bool;
  mutable seq : int;
  mutable no_decrease_until : float;  (* at most one decrease per RTT *)
  outstanding : (int, float) Hashtbl.t;  (* seq -> send time *)
  mutable timer : Engine.Sim.timer;  (* next emission *)
  mutable pkts_sent : int;
  mutable bytes_sent : float;
  mutable bytes_delivered : float;
  mutable n_loss_events : int;
}

let rtt t = if t.rtt_valid then t.srtt else initial_rtt

let rate_pps t = Float.min max_rate_pps (t.w /. rtt t)

let send_next t =
  if t.running then begin
    let pkt =
      Netsim.Packet.make ~size:t.cfg.pkt_size ~seq:t.seq ~flow:t.flow_id
        ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst) ()
    in
    Hashtbl.replace t.outstanding t.seq (Engine.Sim.now t.sim);
    t.seq <- t.seq + 1;
    t.pkts_sent <- t.pkts_sent + 1;
    t.bytes_sent <- t.bytes_sent +. float_of_int t.cfg.pkt_size;
    Netsim.Node.inject t.src pkt;
    Engine.Sim.arm_after t.timer (1. /. rate_pps t)
  end

let sample_rtt t sample =
  if t.rtt_valid then t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
  else begin
    t.srtt <- sample;
    t.rtt_valid <- true
  end

(* An ack for [s] implies everything <= s - 3 still outstanding was lost. *)
let detect_losses t ~acked_seq =
  let lost = ref false in
  let threshold = acked_seq - 3 in
  Hashtbl.iter
    (fun seq _ -> if seq <= threshold then lost := true)
    t.outstanding;
  if !lost then begin
    Hashtbl.reset t.outstanding;
    let now = Engine.Sim.now t.sim in
    if now >= t.no_decrease_until then begin
      t.n_loss_events <- t.n_loss_events + 1;
      Log.debug (fun m ->
          m "t=%.3f flow=%d loss event: w=%.1f -> %.1f" (Engine.Sim.now t.sim)
            t.flow_id t.w ((1. -. t.cfg.b) *. t.w));
      t.w <- Float.max 1. ((1. -. t.cfg.b) *. t.w);
      t.no_decrease_until <- now +. rtt t
    end
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  if t.running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Rap_ack { cum_seq = acked_seq; recv_rate = _ } ->
      (match Hashtbl.find_opt t.outstanding acked_seq with
      | Some sent ->
        Hashtbl.remove t.outstanding acked_seq;
        sample_rtt t (Engine.Sim.now t.sim -. sent)
      | None -> ());
      detect_losses t ~acked_seq;
      (* Per-ack additive increase a/w, suppressed during the one-RTT
         blackout that follows a decrease. *)
      if Engine.Sim.now t.sim >= t.no_decrease_until then
        t.w <- t.w +. (t.cfg.a /. t.w)
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Tfrc_data _
    | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
      ()

let attach_receiver t =
  let bytes = ref 0. in
  Netsim.Node.attach t.dst ~flow:t.flow_id (fun pkt ->
      bytes := !bytes +. float_of_int pkt.Netsim.Packet.size;
      t.bytes_delivered <- !bytes;
      let ack =
        Netsim.Packet.make ~size:40 ~flow:t.flow_id
          ~src:(Netsim.Node.id t.dst) ~dst:(Netsim.Node.id t.src)
          ~payload:
            (Netsim.Packet.Rap_ack
               { cum_seq = pkt.Netsim.Packet.seq; recv_rate = 0. })
          ()
      in
      Netsim.Node.inject t.dst ack)

let create ~sim ~src ~dst ~flow cfg =
  if cfg.a <= 0. || cfg.b <= 0. || cfg.b >= 1. then invalid_arg "Rap.create";
  let t =
    {
      sim;
      cfg;
      src;
      dst;
      flow_id = flow;
      running = false;
      w = 1.;
      srtt = 0.;
      rtt_valid = false;
      seq = 0;
      no_decrease_until = 0.;
      outstanding = Hashtbl.create 64;
      timer = Engine.Sim.timer sim ignore;
      pkts_sent = 0;
      bytes_sent = 0.;
      bytes_delivered = 0.;
      n_loss_events = 0;
    }
  in
  t.timer <- Engine.Sim.timer sim (fun () -> send_next t);
  attach_receiver t;
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    send_next t
  end

let stop t =
  t.running <- false;
  Engine.Sim.disarm t.timer

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = Printf.sprintf "rap(b=%g)" t.cfg.b;
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> t.bytes_sent);
    bytes_delivered = (fun () -> t.bytes_delivered);
    srtt = (fun () -> rtt t);
    stats =
      Flow.basic_stats
        ~pkts_sent:(fun () -> t.pkts_sent)
        ~bytes_sent:(fun () -> t.bytes_sent)
        ~bytes_delivered:(fun () -> t.bytes_delivered)
        ~srtt:(fun () -> rtt t);
  }

let window t = t.w
let loss_events t = t.n_loss_events

type t = {
  sim : Engine.Sim.t;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  pkt_size : int;
  mutable rate : float;
  mutable on : bool;
  mutable timer : Engine.Sim.timer;  (* next emission *)
  mutable seq : int;
  mutable pkts_sent : int;
  mutable bytes_sent : float;
  mutable bytes_delivered : float;
}

let interval t = float_of_int (t.pkt_size * 8) /. t.rate

let send_next t =
  if t.on && t.rate > 0. then begin
    let pkt =
      Netsim.Packet.make ~size:t.pkt_size ~seq:t.seq ~flow:t.flow_id
        ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst) ()
    in
    t.seq <- t.seq + 1;
    t.pkts_sent <- t.pkts_sent + 1;
    t.bytes_sent <- t.bytes_sent +. float_of_int t.pkt_size;
    Netsim.Node.inject t.src pkt;
    Engine.Sim.arm_after t.timer (interval t)
  end

let create ~sim ~src ~dst ~flow ~rate ~pkt_size =
  if rate <= 0. then invalid_arg "Cbr.create: rate must be positive";
  let t =
    {
      sim;
      src;
      dst;
      flow_id = flow;
      pkt_size;
      rate;
      on = false;
      timer = Engine.Sim.timer sim ignore;
      seq = 0;
      pkts_sent = 0;
      bytes_sent = 0.;
      bytes_delivered = 0.;
    }
  in
  t.timer <- Engine.Sim.timer sim (fun () -> send_next t);
  Netsim.Node.attach dst ~flow (fun pkt ->
      t.bytes_delivered <-
        t.bytes_delivered +. float_of_int pkt.Netsim.Packet.size);
  t

let start t =
  if not t.on then begin
    t.on <- true;
    send_next t
  end

let stop t =
  t.on <- false;
  Engine.Sim.disarm t.timer

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = "cbr";
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> t.bytes_sent);
    bytes_delivered = (fun () -> t.bytes_delivered);
    srtt = (fun () -> 0.);
    stats =
      Flow.basic_stats
        ~pkts_sent:(fun () -> t.pkts_sent)
        ~bytes_sent:(fun () -> t.bytes_sent)
        ~bytes_delivered:(fun () -> t.bytes_delivered)
        ~srtt:(fun () -> 0.);
  }

let set_rate t rate =
  if rate <= 0. then invalid_arg "Cbr.set_rate: rate must be positive";
  t.rate <- rate

let rate t = t.rate

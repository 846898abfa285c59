let log_src =
  Logs.Src.create "slowcc.tfrc" ~doc:"TFRC sender/receiver events"

module Log = (val Logs.src_log log_src)

type config = {
  k : int;
  pkt_size : int;
  conservative : bool;
  conservative_c : float;
}

let default_config ~k =
  { k; pkt_size = 1000; conservative = false; conservative_c = 1.1 }

let initial_rtt = 0.2
let initial_rate_pps = 2.
let min_rate_pps = 1. /. 64. (* one packet per t_mbi = 64 s *)

(* ------------------------------------------------------------------ *)
(* Receiver                                                            *)
(* ------------------------------------------------------------------ *)

type receiver = {
  r_sim : Engine.Sim.t;
  r_node : Netsim.Node.t;
  r_flow : int;
  r_peer : int;
  r_cfg : config;
  history : Loss_history.t;
  mutable next_expected : int;
  mutable rtt_from_sender : float;
  mutable last_ts : float;  (* timestamp of last data packet *)
  mutable last_ts_arrival : float;  (* when it arrived here *)
  mutable bytes_since_fb : int;
  mutable last_fb_time : float;
  arrivals : (float * int) Queue.t;  (* recent (time, size), window of 16 *)
  mutable new_loss_pending : bool;
  mutable first_interval_seeded : bool;
  mutable recv_rate_estimate : float;  (* bytes/s over last fb interval *)
  mutable total_bytes : int;
  mutable fb_timer : Engine.Sim.timer;
}

let receiver_rtt r =
  if r.rtt_from_sender > 0. then r.rtt_from_sender else initial_rtt

(* Receive rate estimate.  The RFC measures bytes over the last RTT, which
   quantizes badly when an RTT holds zero or one packet; so we also rate
   the most recent few packets by their inter-arrival span and keep the
   larger of the two.  This stays current during ramps and never collapses
   from sampling noise. *)
let measured_recv_rate r ~now =
  let rtt = receiver_rtt r in
  let rate_over_last_rtt =
    let bytes =
      Queue.fold
        (fun acc (t, size) -> if t > now -. rtt then acc + size else acc)
        0 r.arrivals
    in
    if bytes > 0 then Some (float_of_int bytes /. rtt) else None
  in
  let rate_recent_packets =
    let newest_first = Queue.fold (fun acc x -> x :: acc) [] r.arrivals in
    match newest_first with
    | (t_new, _) :: _ when List.length newest_first >= 2 ->
      let recent = List.filteri (fun i _ -> i < 4) newest_first in
      let t_old = fst (List.nth recent (List.length recent - 1)) in
      (* Bytes of the packets after the oldest, over the span they took. *)
      let bytes =
        List.fold_left (fun acc (_, size) -> acc + size) 0 recent
        - snd (List.nth recent (List.length recent - 1))
      in
      let span = t_new -. t_old in
      if span > 0. then Some (float_of_int bytes /. span) else None
    | _ -> None
  in
  match (rate_over_last_rtt, rate_recent_packets) with
  | Some a, Some b -> Some (Float.max a b)
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* Fallback receive-rate estimate when no per-packet measurement is
   available: bytes over the feedback interval.  A feedback fired exactly
   at a packet-arrival instant (dyadic timestamps make this reproducible)
   has [elapsed = 0.]; dividing would poison the estimate with inf/nan,
   so the previous estimate is kept instead. *)
let nofb_recv_rate ~bytes ~elapsed ~prev =
  if elapsed > 0. then float_of_int bytes /. elapsed else prev

let send_feedback r =
  let now = Engine.Sim.now r.r_sim in
  let elapsed = now -. r.last_fb_time in
  (match measured_recv_rate r ~now with
  | Some rate -> r.recv_rate_estimate <- rate
  | None ->
    r.recv_rate_estimate <-
      nofb_recv_rate ~bytes:r.bytes_since_fb ~elapsed
        ~prev:r.recv_rate_estimate);
  let p = Loss_history.loss_event_rate r.history in
  (* Seed the first loss interval from the receive rate at the time of the
     first loss event (RFC 3448 s6.3.1). *)
  (if (not r.first_interval_seeded) && Loss_history.num_loss_events r.history > 0
   then begin
     let rate_pps =
       Float.max 1.
         (r.recv_rate_estimate /. float_of_int r.r_cfg.pkt_size)
     in
     let p0 = Tfrc_eq.invert ~rate_pps ~rtt:(receiver_rtt r) in
     Loss_history.seed_first_interval r.history (1. /. p0);
     r.first_interval_seeded <- true
   end);
  let p =
    if r.first_interval_seeded then Loss_history.loss_event_rate r.history
    else p
  in
  let pkt =
    Netsim.Packet.make ~size:40 ~flow:r.r_flow
      ~src:(Netsim.Node.id r.r_node) ~dst:r.r_peer
      ~payload:
        (Netsim.Packet.Tfrc_fb
           {
             loss_event_rate = p;
             recv_rate = r.recv_rate_estimate;
             timestamp_echo = r.last_ts;
             delay_echo = now -. r.last_ts_arrival;
             new_loss = r.new_loss_pending;
           })
      ()
  in
  Netsim.Node.inject r.r_node pkt;
  r.new_loss_pending <- false;
  r.bytes_since_fb <- 0;
  r.last_fb_time <- now

let schedule_feedback r = Engine.Sim.arm_after r.fb_timer (receiver_rtt r)

let receiver_handle r (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Tfrc_data { timestamp; rtt_estimate } ->
    let now = Engine.Sim.now r.r_sim in
    if rtt_estimate > 0. then r.rtt_from_sender <- rtt_estimate;
    r.last_ts <- timestamp;
    r.last_ts_arrival <- now;
    r.total_bytes <- r.total_bytes + pkt.Netsim.Packet.size;
    r.bytes_since_fb <- r.bytes_since_fb + pkt.Netsim.Packet.size;
    Queue.add (now, pkt.Netsim.Packet.size) r.arrivals;
    while Queue.length r.arrivals > 16 do
      ignore (Queue.pop r.arrivals)
    done;
    let seq = pkt.Netsim.Packet.seq in
    if seq >= r.next_expected then begin
      (* Our FIFO paths never reorder, so a gap is a loss immediately. *)
      let had_new_event = ref false in
      for missing = r.next_expected to seq - 1 do
        if
          Loss_history.record_loss r.history ~seq:missing ~now
            ~rtt:(receiver_rtt r)
        then had_new_event := true
      done;
      (* An ECN congestion mark counts as a loss event without an actual
         loss (explicit-congestion treatment of the TFRC spec). *)
      if pkt.Netsim.Packet.ecn then
        if Loss_history.record_loss r.history ~seq ~now ~rtt:(receiver_rtt r)
        then had_new_event := true;
      Loss_history.note_progress r.history ~seq;
      r.next_expected <- seq + 1;
      if !had_new_event then begin
        r.new_loss_pending <- true;
        (* Expedite feedback on a new loss event. *)
        send_feedback r
      end
    end
  | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    ()

(* ------------------------------------------------------------------ *)
(* Sender                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  receiver : receiver;
  mutable running : bool;
  mutable x : float;  (* allowed sending rate, packets/s *)
  mutable srtt : float;
  mutable rtt_valid : bool;
  mutable slow_start : bool;
  mutable last_p : float;
  mutable seq : int;
  mutable send_timer : Engine.Sim.timer;
  mutable nofb_timer : Engine.Sim.timer;
  mutable pkts_sent : int;
  mutable bytes_sent : int;
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
    t.bytes_sent <- t.bytes_sent + t.cfg.pkt_size;
    Netsim.Node.inject t.src pkt;
    let gap = 1. /. Float.max min_rate_pps t.x in
    Engine.Sim.arm_after t.send_timer gap
  end

(* The no-feedback timer: halve the rate when feedback stops arriving
   (t_RTO = max(4 R, 2 packets at the current rate)). *)
let restart_nofb t =
  if t.running then begin
    let t_rto = Float.max (4. *. sender_rtt t) (2. /. Float.max 1e-6 t.x) in
    Engine.Sim.arm_after t.nofb_timer t_rto
  end
  else Engine.Sim.disarm t.nofb_timer

let on_feedback t (fb : Netsim.Packet.tfrc_feedback) =
  let now = Engine.Sim.now t.sim in
  let sample = now -. fb.Netsim.Packet.timestamp_echo -. fb.Netsim.Packet.delay_echo in
  if sample > 0. then
    if t.rtt_valid then t.srtt <- (0.9 *. t.srtt) +. (0.1 *. sample)
    else begin
      t.srtt <- sample;
      t.rtt_valid <- true
    end;
  let x_recv_pps = fb.Netsim.Packet.recv_rate /. float_of_int t.cfg.pkt_size in
  let p = fb.Netsim.Packet.loss_event_rate in
  t.last_p <- p;
  (if p > 0. then begin
     t.slow_start <- false;
     let x_calc = Tfrc_eq.rate_pps ~p ~rtt:(sender_rtt t) in
     let allowed =
       if t.cfg.conservative then
         if fb.Netsim.Packet.new_loss then Float.min x_calc x_recv_pps
         else Float.min x_calc (t.cfg.conservative_c *. x_recv_pps)
       else Float.min x_calc (2. *. x_recv_pps)
     in
     t.x <- Float.max min_rate_pps allowed;
     Log.debug (fun m ->
         m "t=%.3f flow=%d feedback: p=%.4f x_recv=%.1fpps -> x=%.1fpps%s"
           (Engine.Sim.now t.sim) t.flow_id p x_recv_pps t.x
           (if fb.Netsim.Packet.new_loss then " (new loss)" else ""))
   end
   else begin
     (* Slow-start: double per feedback, capped by twice the receive rate
        (and by the receive rate itself under the conservative option). *)
     let cap =
       if t.cfg.conservative then
         Float.max initial_rate_pps (2. *. x_recv_pps)
       else 2. *. x_recv_pps
     in
     t.x <-
       Float.max initial_rate_pps (Float.min (2. *. t.x) cap)
   end);
  restart_nofb t

let handle_fb t (pkt : Netsim.Packet.t) =
  if t.running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Tfrc_fb fb -> on_feedback t fb
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
    | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tear_fb _ ->
      ()

let create ~sim ~src ~dst ~flow cfg =
  let receiver =
    {
      r_sim = sim;
      r_node = dst;
      r_flow = flow;
      r_peer = Netsim.Node.id src;
      r_cfg = cfg;
      history = Loss_history.create ~k:cfg.k;
      next_expected = 0;
      rtt_from_sender = 0.;
      last_ts = 0.;
      last_ts_arrival = 0.;
      bytes_since_fb = 0;
      last_fb_time = 0.;
      arrivals = Queue.create ();
      new_loss_pending = false;
      first_interval_seeded = false;
      recv_rate_estimate = 0.;
      total_bytes = 0;
      fb_timer = Engine.Sim.timer sim ignore;
    }
  in
  receiver.fb_timer <-
    Engine.Sim.timer sim (fun () ->
        (* Feedback is only sent while data keeps arriving (RFC 3448
           s6.2); an all-zero receive rate would otherwise collapse the
           sender's slow-start cap. *)
        if receiver.bytes_since_fb > 0 || receiver.new_loss_pending then
          send_feedback receiver;
        schedule_feedback receiver);
  Netsim.Node.attach dst ~flow (receiver_handle receiver);
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
      slow_start = true;
      last_p = 0.;
      seq = 0;
      send_timer = Engine.Sim.timer sim ignore;
      nofb_timer = Engine.Sim.timer sim ignore;
      pkts_sent = 0;
      bytes_sent = 0;
    }
  in
  t.send_timer <- Engine.Sim.timer sim (fun () -> send_next t);
  t.nofb_timer <-
    Engine.Sim.timer sim (fun () ->
        t.x <- Float.max min_rate_pps (t.x /. 2.);
        restart_nofb t);
  Netsim.Node.attach src ~flow (handle_fb t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.receiver.last_fb_time <- Engine.Sim.now t.sim;
    send_next t;
    schedule_feedback t.receiver;
    restart_nofb t
  end

let stop t =
  t.running <- false;
  Engine.Sim.disarm t.send_timer;
  Engine.Sim.disarm t.nofb_timer;
  Engine.Sim.disarm t.receiver.fb_timer

let flow t =
  let name =
    Printf.sprintf "tfrc(%d)%s" t.cfg.k
      (if t.cfg.conservative then "+sc" else "")
  in
  {
    Flow.id = t.flow_id;
    protocol = name;
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> float_of_int t.bytes_sent);
    bytes_delivered = (fun () -> float_of_int t.receiver.total_bytes);
    srtt = (fun () -> sender_rtt t);
    stats =
      Flow.basic_stats
        ~pkts_sent:(fun () -> t.pkts_sent)
        ~bytes_sent:(fun () -> float_of_int t.bytes_sent)
        ~bytes_delivered:(fun () -> float_of_int t.receiver.total_bytes)
        ~srtt:(fun () -> sender_rtt t);
  }

let rate_pps t = t.x
let srtt t = sender_rtt t
let loss_event_rate t = t.last_p
let in_slow_start t = t.slow_start

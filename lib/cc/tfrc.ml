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

let initial_rate_pps = 2.
let min_rate_pps = 1. /. 64. (* one packet per t_mbi = 64 s *)

(* ------------------------------------------------------------------ *)
(* Receiver                                                            *)
(* ------------------------------------------------------------------ *)

type receiver = {
  history : Loss_history.t;
  mutable next_expected : int;
  mutable bytes_since_fb : int;
  mutable last_fb_time : float;
  arrivals : (float * int) Queue.t;  (* recent (time, size), window of 16 *)
  mutable new_loss_pending : bool;
  mutable first_interval_seeded : bool;
  mutable recv_rate_estimate : float;  (* bytes/s over last fb interval *)
  mutable fb_timer : Engine.Sim.timer;
}

(* The sender's own state: the send loop, its counters, the RTT estimate
   and the timestamp echo are [Rate_flow]'s. *)
type sender = {
  cfg : config;
  receiver : receiver;
  mutable x : float;  (* allowed sending rate, packets/s *)
  mutable slow_start : bool;
  mutable last_p : float;
  mutable nofb_timer : Engine.Sim.timer;
}

type t = sender Rate_flow.t

(* Receive rate estimate.  The RFC measures bytes over the last RTT, which
   quantizes badly when an RTT holds zero or one packet; so we also rate
   the most recent few packets by their inter-arrival span and keep the
   larger of the two.  This stays current during ramps and never collapses
   from sampling noise. *)
let measured_recv_rate t r ~now =
  let rtt = Rate_flow.receiver_rtt t in
  let rate_over_last_rtt =
    let bytes =
      Queue.fold
        (fun acc (at, size) -> if at > now -. rtt then acc + size else acc)
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

let send_feedback t =
  let s = Rate_flow.state t in
  let r = s.receiver in
  let now = Rate_flow.now t in
  let elapsed = now -. r.last_fb_time in
  (match measured_recv_rate t r ~now with
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
       Float.max 1. (r.recv_rate_estimate /. float_of_int s.cfg.pkt_size)
     in
     let p0 = Tfrc_eq.invert ~rate_pps ~rtt:(Rate_flow.receiver_rtt t) in
     Loss_history.seed_first_interval r.history (1. /. p0);
     r.first_interval_seeded <- true
   end);
  let p =
    if r.first_interval_seeded then Loss_history.loss_event_rate r.history
    else p
  in
  Rate_flow.reply t
    (Netsim.Packet.Tfrc_fb
       {
         loss_event_rate = p;
         recv_rate = r.recv_rate_estimate;
         timestamp_echo = Rate_flow.timestamp_echo t;
         delay_echo = Rate_flow.delay_echo t;
         new_loss = r.new_loss_pending;
       });
  r.new_loss_pending <- false;
  r.bytes_since_fb <- 0;
  r.last_fb_time <- now

let schedule_feedback t =
  Engine.Sim.arm_after (Rate_flow.state t).receiver.fb_timer
    (Rate_flow.receiver_rtt t)

let receive t (pkt : Netsim.Packet.t) =
  let r = (Rate_flow.state t).receiver in
  let now = Rate_flow.now t in
  Rate_flow.note_echo t ~now pkt;
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
          ~rtt:(Rate_flow.receiver_rtt t)
      then had_new_event := true
    done;
    (* An ECN congestion mark counts as a loss event without an actual
       loss (explicit-congestion treatment of the TFRC spec). *)
    if pkt.Netsim.Packet.ecn then
      if
        Loss_history.record_loss r.history ~seq ~now
          ~rtt:(Rate_flow.receiver_rtt t)
      then had_new_event := true;
    Loss_history.note_progress r.history ~seq;
    r.next_expected <- seq + 1;
    if !had_new_event then begin
      r.new_loss_pending <- true;
      (* Expedite feedback on a new loss event. *)
      send_feedback t
    end
  end

(* ------------------------------------------------------------------ *)
(* Sender                                                              *)
(* ------------------------------------------------------------------ *)

(* The no-feedback timer: halve the rate when feedback stops arriving
   (t_RTO = max(4 R, 2 packets at the current rate)). *)
let restart_nofb t =
  let s = Rate_flow.state t in
  if Rate_flow.running t then begin
    let t_rto = Float.max (4. *. Rate_flow.rtt t) (2. /. Float.max 1e-6 s.x) in
    Engine.Sim.arm_after s.nofb_timer t_rto
  end
  else Engine.Sim.disarm s.nofb_timer

let on_feedback t (fb : Netsim.Packet.tfrc_feedback) =
  let s = Rate_flow.state t in
  Rate_flow.echo_sample t ~timestamp:fb.Netsim.Packet.timestamp_echo
    ~delay:fb.Netsim.Packet.delay_echo;
  let x_recv_pps = fb.Netsim.Packet.recv_rate /. float_of_int s.cfg.pkt_size in
  let p = fb.Netsim.Packet.loss_event_rate in
  s.last_p <- p;
  (if p > 0. then begin
     s.slow_start <- false;
     let x_calc = Tfrc_eq.rate_pps ~p ~rtt:(Rate_flow.rtt t) in
     let allowed =
       if s.cfg.conservative then
         if fb.Netsim.Packet.new_loss then Float.min x_calc x_recv_pps
         else Float.min x_calc (s.cfg.conservative_c *. x_recv_pps)
       else Float.min x_calc (2. *. x_recv_pps)
     in
     s.x <- Float.max min_rate_pps allowed;
     Log.debug (fun m ->
         m "t=%.3f flow=%d feedback: p=%.4f x_recv=%.1fpps -> x=%.1fpps%s"
           (Rate_flow.now t) (Rate_flow.flow_id t) p x_recv_pps s.x
           (if fb.Netsim.Packet.new_loss then " (new loss)" else ""))
   end
   else begin
     (* Slow-start: double per feedback, capped by twice the receive rate
        (and by the receive rate itself under the conservative option). *)
     let cap =
       if s.cfg.conservative then
         Float.max initial_rate_pps (2. *. x_recv_pps)
       else 2. *. x_recv_pps
     in
     s.x <- Float.max initial_rate_pps (Float.min (2. *. s.x) cap)
   end);
  restart_nofb t

let handle_fb t (pkt : Netsim.Packet.t) =
  if Rate_flow.running t then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Tfrc_fb fb -> on_feedback t fb
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _
    | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tear_fb _ ->
      ()

let create ~sim ~src ~dst ~flow cfg =
  let receiver =
    {
      history = Loss_history.create ~k:cfg.k;
      next_expected = 0;
      bytes_since_fb = 0;
      last_fb_time = 0.;
      arrivals = Queue.create ();
      new_loss_pending = false;
      first_interval_seeded = false;
      recv_rate_estimate = 0.;
      fb_timer = Engine.Sim.timer sim ignore;
    }
  in
  let s =
    {
      cfg;
      receiver;
      x = initial_rate_pps;
      slow_start = true;
      last_p = 0.;
      nofb_timer = Engine.Sim.timer sim ignore;
    }
  in
  let t =
    Rate_flow.create ~sim ~src ~dst ~flow ~pkt_size:cfg.pkt_size
      ~payload:Rate_flow.echo_payload
      ~gap:(fun _ -> 1. /. Float.max min_rate_pps s.x)
      ~receive
      ~on_start:(fun t ->
        receiver.last_fb_time <- Rate_flow.now t;
        schedule_feedback t;
        restart_nofb t)
      ~on_stop:(fun _ ->
        Engine.Sim.disarm s.nofb_timer;
        Engine.Sim.disarm receiver.fb_timer)
      s
  in
  receiver.fb_timer <-
    Engine.Sim.timer sim (fun () ->
        (* Feedback is only sent while data keeps arriving (RFC 3448
           s6.2); an all-zero receive rate would otherwise collapse the
           sender's slow-start cap. *)
        if receiver.bytes_since_fb > 0 || receiver.new_loss_pending then
          send_feedback t;
        schedule_feedback t);
  s.nofb_timer <-
    Engine.Sim.timer sim (fun () ->
        s.x <- Float.max min_rate_pps (s.x /. 2.);
        restart_nofb t);
  Netsim.Node.attach src ~flow (handle_fb t);
  t

let flow t =
  let cfg = (Rate_flow.state t).cfg in
  Rate_flow.flow t
    ~protocol:
      (Printf.sprintf "tfrc(%d)%s" cfg.k (if cfg.conservative then "+sc" else ""))

let rate_pps t = (Rate_flow.state t).x
let srtt = Rate_flow.rtt
let loss_event_rate t = (Rate_flow.state t).last_p
let in_slow_start t = (Rate_flow.state t).slow_start

(* Vegas-style delay-based sender.

   The controller estimates the standing queue it keeps at the bottleneck
   from the gap between the measured RTT and the propagation RTT:

     diff = cwnd * (rtt - base_rtt) / rtt        (packets queued)

   and once per RTT nudges the window to keep alpha < diff < beta
   (Brakmo & Peterson's alpha/beta rule; +1 below alpha, -1 above beta,
   hold in between), with a gamma threshold that exits the
   double-every-other-RTT slow start the moment a standing queue forms.

   Two classic delay-CC pathologies are addressed the way the "gallery of
   solutions" survey recommends:
   - RTT noise: decisions use the *minimum* RTT sample of each RTT epoch,
     not individual (ack-compression-prone) samples.
   - Base-RTT drift: base_rtt is a windowed minimum over two rotating
     half-window buckets (~[base_rtt_window] seconds), so a route change
     or a long-lived standing queue cannot pin base_rtt to a stale value
     forever.

   RTT samples are per-sequence send timestamps, discarded when a
   sequence is retransmitted (Karn's rule: an ack for a retransmitted
   segment is ambiguous and is never timed).  Loss handling is
   deliberately plain — 3-dupack retransmit with a 3/4 window decrease,
   go-back-N on RTO with the usual exponential backoff floored at
   [min_rto] — because congestion avoidance is supposed to come from
   delay, not loss.  ECN marks are ignored for the same reason: the
   standing-queue estimate already sees the queue the marks advertise.

   The sender is ack-clocked (window-based), so it needs no pacer; the
   BBR-style sender in [Bbr] is the rate-paced one. *)

module Log = (val Logs.src_log (Logs.Src.create "cc.vegas") : Logs.LOG)

type config = {
  alpha : float; (* grow while the standing queue is below this (pkts) *)
  beta : float; (* shrink once it exceeds this (pkts) *)
  pkt_size : int;
}

let default_config = { alpha = 2.; beta = 4.; pkt_size = 1000 }

let gamma = 1. (* leave slow start once diff exceeds this (pkts) *)
let initial_window = 2.
let max_window = 10000.
let min_rto = 0.2
let base_rtt_window = 10. (* base-RTT aging horizon, seconds *)

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  sink : Sink.t;
  mutable running : bool;
  (* sequence space *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable high_water : int;
  (* window *)
  mutable cwnd : float;
  mutable in_slow_start : bool;
  mutable ss_grow : bool; (* slow start doubles every *other* RTT *)
  (* loss recovery *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable backoff : float;
  mutable rto_timer : Engine.Sim.timer;
  (* RTT measurement: send time per (first-transmission) sequence *)
  send_times : (int, float) Hashtbl.t;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_valid : bool;
  (* per-RTT epoch, min-filtered *)
  mutable epoch_end : int; (* decide when snd_una passes this *)
  mutable epoch_min_rtt : float;
  mutable epoch_samples : int;
  (* base-RTT aging: two rotating half-window minima *)
  mutable base_cur : float;
  mutable base_prev : float;
  mutable base_rotate_at : float;
  (* diagnostics *)
  mutable last_diff : float;
  mutable pkts_sent : int;
  mutable bytes_sent : int;
  mutable n_timeouts : int;
  mutable n_fast_rtx : int;
  mutable n_rtx_pkts : int;
}

let inflight t = t.snd_nxt - t.snd_una

let current_rto t =
  Rto.timeout ~min_rto ~backoff:t.backoff ~rtt_valid:t.rtt_valid ~srtt:t.srtt
    ~rttvar:t.rttvar

let transmit t ~seq =
  let now = Engine.Sim.now t.sim in
  let pkt =
    Netsim.Packet.make ~size:t.cfg.pkt_size ~seq ~payload:Netsim.Packet.Plain
      ~flow:t.flow_id ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst)
  in
  t.pkts_sent <- t.pkts_sent + 1;
  t.bytes_sent <- t.bytes_sent + t.cfg.pkt_size;
  if seq < t.high_water then begin
    t.n_rtx_pkts <- t.n_rtx_pkts + 1;
    (* Karn: a retransmitted sequence can never yield an unambiguous
       sample. *)
    Hashtbl.remove t.send_times seq
  end
  else begin
    Hashtbl.replace t.send_times seq now;
    t.high_water <- seq + 1
  end;
  Netsim.Node.inject t.src pkt

let cancel_rto t = Engine.Sim.disarm t.rto_timer

let restart_rto t =
  if t.running && t.snd_una < t.snd_nxt then
    Engine.Sim.arm_after t.rto_timer (current_rto t)
  else cancel_rto t

let try_send t =
  if t.running then begin
    while
      float_of_int (inflight t) < Float.floor t.cwnd
      && (not t.in_recovery)
    do
      transmit t ~seq:t.snd_nxt;
      t.snd_nxt <- t.snd_nxt + 1
    done;
    if not (Engine.Sim.timer_armed t.rto_timer) then restart_rto t
  end

let base_rtt t = Float.min t.base_cur t.base_prev

let rotate_base t =
  let now = Engine.Sim.now t.sim in
  if now >= t.base_rotate_at then begin
    t.base_prev <- t.base_cur;
    t.base_cur <- infinity;
    t.base_rotate_at <- now +. (base_rtt_window /. 2.)
  end

let srtt_update t sample =
  if t.rtt_valid then begin
    let err = sample -. t.srtt in
    t.srtt <- t.srtt +. (0.125 *. err);
    t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar))
  end
  else begin
    t.srtt <- sample;
    t.rttvar <- sample /. 2.;
    t.rtt_valid <- true
  end

(* Every newly cum-acked first transmission yields a sample; the epoch
   keeps only the minimum (ack-compression noise filter), base_rtt keeps
   the windowed minimum, srtt/rttvar feed the RTO. *)
let sample_rtts t ~old_una ~cum =
  let now = Engine.Sim.now t.sim in
  for seq = old_una to cum - 1 do
    match Hashtbl.find_opt t.send_times seq with
    | None -> ()
    | Some sent_at ->
      Hashtbl.remove t.send_times seq;
      let sample = now -. sent_at in
      if t.epoch_samples = 0 || sample < t.epoch_min_rtt then
        t.epoch_min_rtt <- sample;
      t.epoch_samples <- t.epoch_samples + 1;
      if sample < t.base_cur then t.base_cur <- sample;
      srtt_update t sample
  done

(* Once-per-RTT window decision at the epoch boundary. *)
let vegas_update t =
  rotate_base t;
  if t.epoch_samples > 0 && Float.is_finite (base_rtt t) then begin
    let rtt = t.epoch_min_rtt in
    (* Samples feed the base filter first, so base <= rtt always; the min
       guards the instant right after a bucket rotation. *)
    let base = Float.min (base_rtt t) rtt in
    let diff = t.cwnd *. (rtt -. base) /. rtt in
    t.last_diff <- diff;
    if t.in_slow_start then begin
      if diff > gamma then begin
        (* A standing queue has formed: drain it and switch to the linear
           regime. *)
        t.in_slow_start <- false;
        t.cwnd <- Float.max 2. (t.cwnd *. base /. rtt)
      end
      else begin
        if t.ss_grow then t.cwnd <- Float.min max_window (t.cwnd *. 2.);
        t.ss_grow <- not t.ss_grow
      end
    end
    else if diff < t.cfg.alpha then
      t.cwnd <- Float.min max_window (t.cwnd +. 1.)
    else if diff > t.cfg.beta then t.cwnd <- Float.max 2. (t.cwnd -. 1.);
    Log.debug (fun m ->
        m "t=%.3f flow=%d vegas: rtt=%.4f base=%.4f diff=%.2f cwnd=%.1f%s"
          (Engine.Sim.now t.sim) t.flow_id rtt base diff t.cwnd
          (if t.in_slow_start then " (ss)" else ""))
  end;
  t.epoch_samples <- 0;
  t.epoch_min_rtt <- infinity;
  t.epoch_end <- t.snd_nxt

let on_rto t =
  if t.running && t.snd_una < t.snd_nxt then begin
    t.n_timeouts <- t.n_timeouts + 1;
    t.cwnd <- 2.;
    t.in_slow_start <- true;
    t.ss_grow <- false;
    t.backoff <- Rto.double_backoff t.backoff;
    t.in_recovery <- false;
    t.dupacks <- 0;
    (* Go-back-N: everything in flight is presumed lost. *)
    t.snd_nxt <- t.snd_una;
    t.recover <- t.high_water;
    transmit t ~seq:t.snd_nxt;
    t.snd_nxt <- t.snd_nxt + 1;
    t.epoch_samples <- 0;
    t.epoch_min_rtt <- infinity;
    t.epoch_end <- t.snd_nxt;
    restart_rto t
  end

let on_new_ack t cum =
  let old_una = t.snd_una in
  sample_rtts t ~old_una ~cum;
  t.snd_una <- cum;
  t.backoff <- 1.;
  if t.in_recovery && cum > t.recover then begin
    t.in_recovery <- false;
    t.dupacks <- 0
  end
  else if not t.in_recovery then t.dupacks <- 0;
  if t.in_recovery then
    (* Partial ack during recovery: the next hole is lost too. *)
    transmit t ~seq:t.snd_una
  else if cum >= t.epoch_end then vegas_update t;
  restart_rto t;
  try_send t

let on_dup_ack t =
  t.dupacks <- t.dupacks + 1;
  if (not t.in_recovery) && t.dupacks = 3 && t.snd_una > t.recover then begin
    t.n_fast_rtx <- t.n_fast_rtx + 1;
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    (* Vegas's gentler-than-halving decrease. *)
    t.cwnd <- Float.max 2. (t.cwnd *. 0.75);
    t.in_slow_start <- false;
    transmit t ~seq:t.snd_una;
    restart_rto t
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  if t.running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Ack { cum_seq; sack = _ } ->
      if cum_seq > t.snd_una then on_new_ack t cum_seq
      else if cum_seq = t.snd_una && t.snd_una < t.snd_nxt then on_dup_ack t
      (* cum_seq < snd_una: stale ack from before a go-back-N rewind. *)
    | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
    | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
      ()

let create ~sim ~src ~dst ~flow cfg =
  (* NaN fails every comparison, and a finite beta bounds alpha. *)
  if not (0. <= cfg.alpha && cfg.alpha <= cfg.beta && Float.is_finite cfg.beta)
  then invalid_arg "Vegas: need finite 0 <= alpha <= beta";
  let sink =
    Sink.attach ~sim ~node:dst ~flow ~peer:(Netsim.Node.id src)
  in
  let t =
    {
      sim;
      cfg;
      src;
      dst;
      flow_id = flow;
      sink;
      running = false;
      snd_una = 0;
      snd_nxt = 0;
      high_water = 0;
      cwnd = initial_window;
      in_slow_start = true;
      ss_grow = true;
      dupacks = 0;
      in_recovery = false;
      recover = -1;
      backoff = 1.;
      rto_timer = Engine.Sim.timer sim ignore;
      send_times = Hashtbl.create 64;
      srtt = 0.;
      rttvar = 0.;
      rtt_valid = false;
      epoch_end = 0;
      epoch_min_rtt = infinity;
      epoch_samples = 0;
      base_cur = infinity;
      base_prev = infinity;
      base_rotate_at = Engine.Sim.now sim +. (base_rtt_window /. 2.);
      last_diff = 0.;
      pkts_sent = 0;
      bytes_sent = 0;
      n_timeouts = 0;
      n_fast_rtx = 0;
      n_rtx_pkts = 0;
    }
  in
  t.rto_timer <- Engine.Sim.timer sim (fun () -> on_rto t);
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.epoch_end <- t.snd_nxt;
    try_send t
  end

let stop t =
  t.running <- false;
  cancel_rto t

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = "VEGAS";
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> float_of_int t.bytes_sent);
    bytes_delivered = (fun () -> Sink.bytes_received t.sink);
    srtt = (fun () -> t.srtt);
    stats =
      (fun () ->
        {
          Flow.sent_pkts = t.pkts_sent;
          sent_bytes = float_of_int t.bytes_sent;
          delivered_bytes = Sink.bytes_received t.sink;
          rtx_pkts = t.n_rtx_pkts;
          timeouts = t.n_timeouts;
          fast_rtx = t.n_fast_rtx;
          stat_srtt = t.srtt;
        });
  }

let cwnd t = t.cwnd
let srtt t = t.srtt
let rto t = current_rto t
let in_slow_start t = t.in_slow_start
let standing_queue t = t.last_diff
let base_rtt_estimate t = if Float.is_finite (base_rtt t) then base_rtt t else 0.
let timeouts t = t.n_timeouts
let fast_retransmits t = t.n_fast_rtx

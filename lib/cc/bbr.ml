(* BBR-style model-based sender.

   Instead of a loss- or delay-triggered window rule, the sender keeps an
   explicit model of the path — bottleneck bandwidth [btl_bw] (windowed
   maximum of per-ack delivery-rate samples, over ~[bw_filter_rounds]
   round trips) and propagation delay [rtprop] (windowed minimum of RTT
   samples over [rtprop_window] seconds) — and paces transmissions at
   [pacing_gain * btl_bw] through a [Pacing] token bucket, capped by an
   inflight ceiling of [cwnd_gain * btl_bw * rtprop].

   The classic four-mode machine:
   - STARTUP: pacing_gain 2/ln2 (~2.885) doubles the rate each RTT until
     the delivery rate stops growing (>= 25% over the best) for
     [startup_full_rounds] consecutive rounds — the pipe is full.
   - DRAIN: pacing_gain 1/2.885 until inflight <= BDP, bleeding off the
     queue startup built.
   - PROBE_BW: an 8-phase gain cycle (1.25, 0.75, then six 1.0 phases),
     one phase per rtprop, probing for more bandwidth and then draining
     what the probe queued.  The cycle starts at a fixed phase index so
     runs are deterministic.
   - PROBE_RTT: when the rtprop filter has gone [rtprop_window] without a
     new minimum, cap the window at [probe_rtt_cwnd] packets for
     [probe_rtt_duration] so the real propagation delay shows through.

   Delivery-rate samples follow the rate-estimation draft in miniature:
   each first transmission records (send time, packets delivered so far);
   when it is cumulatively acked the sample is
   (delivered_now - delivered_then) / (now - sent_then).  Retransmitted
   sequences never produce samples (Karn, as everywhere else in lib/cc).

   Loss does not change the model (BBR v1 behavior): recovery is a
   3-dupack retransmit and go-back-N on RTO — with the timer floored at
   [min_rto] and exponentially backed off — but btl_bw/rtprop survive. *)

let initial_cwnd = 4. (* pkts; also seeds the pre-sample pacing rate *)
let initial_rtt = 0.1 (* pacing seed before the first RTT sample *)
let min_rto = 0.2
let bw_filter_rounds = 10
let rtprop_window = 10.
let probe_rtt_duration = 0.2
let startup_full_rounds = 3

module Log = (val Logs.src_log (Logs.Src.create "cc.bbr") : Logs.LOG)

type mode = Startup | Drain | Probe_bw | Probe_rtt

let mode_name = function
  | Startup -> "STARTUP"
  | Drain -> "DRAIN"
  | Probe_bw -> "PROBE_BW"
  | Probe_rtt -> "PROBE_RTT"

let startup_gain = 2.885 (* 2 / ln 2 *)
let drain_gain = 1. /. 2.885
let probe_bw_cwnd_gain = 2.0
let startup_cwnd_gain = 2.885
let probe_rtt_cwnd = 4.
let gain_cycle = [| 1.25; 0.75; 1.; 1.; 1.; 1.; 1.; 1. |]
let initial_cycle_index = 2 (* fixed, deterministic: start in cruise *)

type t = {
  sim : Engine.Sim.t;
  pkt_size : int;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  sink : Sink.t;
  mutable pacer : Pacing.t;
  mutable running : bool;
  (* sequence space *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable high_water : int;
  (* model *)
  mutable delivered : int; (* cumulatively acked first transmissions *)
  send_info : (int, float * int) Hashtbl.t; (* seq -> sent_at, delivered *)
  mutable btl_bw : float; (* pkts/s, 0 until the first sample *)
  mutable bw_cur : float; (* current half-window max bucket *)
  mutable bw_prev : float;
  mutable bw_rotate_round : int;
  mutable rtprop : float; (* seconds, infinity until the first sample *)
  mutable rt_cur : float;
  mutable rt_prev : float;
  mutable rt_rotate_at : float;
  mutable rtprop_stamp : float; (* last time the min was refreshed *)
  (* rounds *)
  mutable round_count : int;
  mutable round_end : int; (* snd_nxt when the current round started *)
  (* mode machine *)
  mutable mode : mode;
  mutable pacing_gain : float;
  mutable cwnd_gain : float;
  mutable filled_pipe : bool;
  mutable full_bw : float;
  mutable full_bw_rounds : int;
  mutable cycle_index : int;
  mutable cycle_stamp : float;
  mutable probe_rtt_done_at : float; (* nan until inflight has drained *)
  (* loss recovery *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable backoff : float;
  mutable rto_timer : Engine.Sim.timer;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_valid : bool;
  (* diagnostics *)
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

let bdp_pkts t =
  if t.btl_bw > 0. && Float.is_finite t.rtprop then t.btl_bw *. t.rtprop
  else initial_cwnd

let cwnd_pkts t =
  if t.mode = Probe_rtt then probe_rtt_cwnd
  else Float.max probe_rtt_cwnd (t.cwnd_gain *. bdp_pkts t)

let pacing_rate_pps t =
  if t.btl_bw > 0. then t.pacing_gain *. t.btl_bw
  else
    (* No sample yet: pace the initial window out over the RTT guess. *)
    t.pacing_gain *. initial_cwnd /. initial_rtt

let transmit t ~seq =
  let now = Engine.Sim.now t.sim in
  let pkt =
    Netsim.Packet.make ~size:t.pkt_size ~seq ~payload:Netsim.Packet.Plain
      ~flow:t.flow_id ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst)
  in
  t.pkts_sent <- t.pkts_sent + 1;
  t.bytes_sent <- t.bytes_sent + t.pkt_size;
  if seq < t.high_water then begin
    t.n_rtx_pkts <- t.n_rtx_pkts + 1;
    Hashtbl.remove t.send_info seq (* Karn *)
  end
  else begin
    Hashtbl.replace t.send_info seq (now, t.delivered);
    t.high_water <- seq + 1
  end;
  Netsim.Node.inject t.src pkt

let cancel_rto t = Engine.Sim.disarm t.rto_timer

let restart_rto t =
  if t.running && t.snd_una < t.snd_nxt then
    Engine.Sim.arm_after t.rto_timer (current_rto t)
  else cancel_rto t

(* The pacer's emit callback: one new packet if the inflight cap allows. *)
let emit t () =
  if
    t.running
    && (not t.in_recovery)
    && float_of_int (inflight t) < Float.floor (cwnd_pkts t)
  then begin
    transmit t ~seq:t.snd_nxt;
    t.snd_nxt <- t.snd_nxt + 1;
    if not (Engine.Sim.timer_armed t.rto_timer) then restart_rto t;
    true
  end
  else false

(* --- model filters ---------------------------------------------------- *)

let btl_bw_update t =
  let m = Float.max t.bw_cur t.bw_prev in
  t.btl_bw <- (if Float.is_finite m then m else 0.)

let bw_sample t sample =
  if sample > t.bw_cur then t.bw_cur <- sample;
  if t.round_count - t.bw_rotate_round >= bw_filter_rounds / 2 then begin
    t.bw_prev <- t.bw_cur;
    t.bw_cur <- sample;
    t.bw_rotate_round <- t.round_count
  end;
  btl_bw_update t

let rtprop_update t =
  let m = Float.min t.rt_cur t.rt_prev in
  t.rtprop <- m

let rtt_sample t sample =
  let now = Engine.Sim.now t.sim in
  (* Strictly-lower samples refresh the staleness stamp.  Ties do not:
     the simulator is noiseless, so every PROBE_BW drain phase touches
     the propagation floor *exactly* and [<=] would postpone PROBE_RTT
     forever — where real BBR, with microsecond ties being rare, dips to
     re-measure about every [rtprop_window] just as this does. *)
  if sample < t.rtprop || not (Float.is_finite t.rtprop) then
    t.rtprop_stamp <- now;
  if sample < t.rt_cur then t.rt_cur <- sample;
  if now >= t.rt_rotate_at then begin
    t.rt_prev <- t.rt_cur;
    t.rt_cur <- sample;
    t.rt_rotate_at <- now +. (rtprop_window /. 2.)
  end;
  rtprop_update t;
  (* srtt/rttvar only feed the RTO. *)
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

(* --- mode machine ------------------------------------------------------ *)

let set_gains t =
  match t.mode with
  | Startup ->
    t.pacing_gain <- startup_gain;
    t.cwnd_gain <- startup_cwnd_gain
  | Drain ->
    t.pacing_gain <- drain_gain;
    t.cwnd_gain <- startup_cwnd_gain
  | Probe_bw ->
    t.pacing_gain <- gain_cycle.(t.cycle_index);
    t.cwnd_gain <- probe_bw_cwnd_gain
  | Probe_rtt ->
    t.pacing_gain <- 1.;
    t.cwnd_gain <- 1.

let enter t mode =
  if t.mode <> mode then
    Log.debug (fun m ->
        m "t=%.3f flow=%d bbr: %s -> %s (btl_bw=%.0f pps rtprop=%.4f)"
          (Engine.Sim.now t.sim) t.flow_id (mode_name t.mode) (mode_name mode)
          t.btl_bw t.rtprop);
  t.mode <- mode;
  (match mode with
  | Probe_bw ->
    t.cycle_index <- initial_cycle_index;
    t.cycle_stamp <- Engine.Sim.now t.sim
  | Probe_rtt -> t.probe_rtt_done_at <- Float.nan
  | Startup | Drain -> ());
  set_gains t

(* Per-round startup check: has the delivery rate plateaued? *)
let check_full_pipe t =
  if (not t.filled_pipe) && t.btl_bw > 0. then begin
    if t.btl_bw >= t.full_bw *. 1.25 then begin
      t.full_bw <- t.btl_bw;
      t.full_bw_rounds <- 0
    end
    else begin
      t.full_bw_rounds <- t.full_bw_rounds + 1;
      if t.full_bw_rounds >= startup_full_rounds then
        t.filled_pipe <- true
    end
  end

let update_mode t =
  let now = Engine.Sim.now t.sim in
  (* PROBE_RTT preempts every other mode when the min filter goes stale. *)
  if
    t.mode <> Probe_rtt
    && Float.is_finite t.rtprop
    && now -. t.rtprop_stamp > rtprop_window
  then enter t Probe_rtt;
  (match t.mode with
  | Startup -> if t.filled_pipe then enter t Drain
  | Drain ->
    if float_of_int (inflight t) <= bdp_pkts t then enter t Probe_bw
  | Probe_bw ->
    if
      Float.is_finite t.rtprop
      && now -. t.cycle_stamp > Float.max t.rtprop 0.001
    then begin
      t.cycle_index <- (t.cycle_index + 1) mod Array.length gain_cycle;
      t.cycle_stamp <- now;
      set_gains t
    end
  | Probe_rtt ->
    if Float.is_nan t.probe_rtt_done_at then begin
      if float_of_int (inflight t) <= probe_rtt_cwnd then
        t.probe_rtt_done_at <-
          now +. Float.max probe_rtt_duration t.rtprop
    end
    else if now >= t.probe_rtt_done_at then begin
      t.rtprop_stamp <- now;
      enter t (if t.filled_pipe then Probe_bw else Startup)
    end);
  Pacing.set_rate_pps t.pacer (pacing_rate_pps t)

(* --- ack path ----------------------------------------------------------- *)

let on_new_ack t cum =
  let now = Engine.Sim.now t.sim in
  let old_una = t.snd_una in
  t.snd_una <- cum;
  t.backoff <- 1.;
  t.delivered <- t.delivered + (cum - old_una);
  (* Sample bandwidth/RTT from the newest acked first transmission; drop
     the bookkeeping for the rest. *)
  (match Hashtbl.find_opt t.send_info (cum - 1) with
  | Some (sent_at, delivered_then) when now > sent_at ->
    rtt_sample t (now -. sent_at);
    bw_sample t (float_of_int (t.delivered - delivered_then) /. (now -. sent_at))
  | Some _ | None -> ());
  for seq = old_una to cum - 1 do
    Hashtbl.remove t.send_info seq
  done;
  (* Round accounting. *)
  if cum > t.round_end then begin
    t.round_count <- t.round_count + 1;
    t.round_end <- t.snd_nxt;
    check_full_pipe t
  end;
  if t.in_recovery then begin
    if cum > t.recover then begin
      t.in_recovery <- false;
      t.dupacks <- 0
    end
    else transmit t ~seq:t.snd_una (* next hole is lost too *)
  end
  else t.dupacks <- 0;
  update_mode t;
  restart_rto t;
  Pacing.kick t.pacer

let on_dup_ack t =
  t.dupacks <- t.dupacks + 1;
  if (not t.in_recovery) && t.dupacks = 3 && t.snd_una > t.recover then begin
    t.n_fast_rtx <- t.n_fast_rtx + 1;
    t.in_recovery <- true;
    t.recover <- t.snd_nxt;
    transmit t ~seq:t.snd_una;
    restart_rto t
  end

let on_rto t =
  if t.running && t.snd_una < t.snd_nxt then begin
    t.n_timeouts <- t.n_timeouts + 1;
    t.backoff <- Rto.double_backoff t.backoff;
    t.in_recovery <- false;
    t.dupacks <- 0;
    t.snd_nxt <- t.snd_una;
    t.recover <- t.high_water;
    t.round_end <- t.snd_nxt;
    transmit t ~seq:t.snd_nxt;
    t.snd_nxt <- t.snd_nxt + 1;
    restart_rto t;
    Pacing.kick t.pacer
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  if t.running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Ack { cum_seq; sack = _ } ->
      if cum_seq > t.snd_una then on_new_ack t cum_seq
      else if cum_seq = t.snd_una && t.snd_una < t.snd_nxt then on_dup_ack t
    | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
    | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
      ()

let create ~sim ~src ~dst ~flow ~pkt_size =
  let sink =
    Sink.attach ~sim ~node:dst ~flow ~peer:(Netsim.Node.id src)
  in
  let t =
    {
      sim;
      pkt_size;
      src;
      dst;
      flow_id = flow;
      sink;
      pacer = Pacing.create ~sim ~emit:(fun () -> false);
      running = false;
      snd_una = 0;
      snd_nxt = 0;
      high_water = 0;
      delivered = 0;
      send_info = Hashtbl.create 64;
      btl_bw = 0.;
      bw_cur = 0.;
      bw_prev = 0.;
      bw_rotate_round = 0;
      rtprop = infinity;
      rt_cur = infinity;
      rt_prev = infinity;
      rt_rotate_at = Engine.Sim.now sim +. (rtprop_window /. 2.);
      rtprop_stamp = Engine.Sim.now sim;
      round_count = 0;
      round_end = 0;
      mode = Startup;
      pacing_gain = startup_gain;
      cwnd_gain = startup_cwnd_gain;
      filled_pipe = false;
      full_bw = 0.;
      full_bw_rounds = 0;
      cycle_index = initial_cycle_index;
      cycle_stamp = 0.;
      dupacks = 0;
      in_recovery = false;
      recover = -1;
      backoff = 1.;
      rto_timer = Engine.Sim.timer sim ignore;
      srtt = 0.;
      rttvar = 0.;
      rtt_valid = false;
      probe_rtt_done_at = Float.nan;
      pkts_sent = 0;
      bytes_sent = 0;
      n_timeouts = 0;
      n_fast_rtx = 0;
      n_rtx_pkts = 0;
    }
  in
  t.pacer <- Pacing.create ~sim ~emit:(fun () -> emit t ());
  t.rto_timer <- Engine.Sim.timer sim (fun () -> on_rto t);
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not t.running then begin
    t.running <- true;
    Pacing.set_rate_pps t.pacer (pacing_rate_pps t);
    Pacing.start t.pacer
  end

let stop t =
  t.running <- false;
  Pacing.stop t.pacer;
  cancel_rto t

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = "BBR";
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

let mode t = mode_name t.mode
let btl_bw_pps t = t.btl_bw
let rtprop t = if Float.is_finite t.rtprop then t.rtprop else 0.
let rto t = current_rto t
let timeouts t = t.n_timeouts
let fast_retransmits t = t.n_fast_rtx

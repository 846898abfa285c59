let log_src =
  Logs.Src.create "slowcc.window_cc" ~doc:"Windowed congestion control events"

module Log = (val Logs.src_log log_src)

type rule = {
  name : string;
  increase : float -> float;
  decrease : float -> float;
}

let aimd ~a ~b =
  if a <= 0. || b <= 0. || b >= 1. then invalid_arg "Window_cc.aimd";
  {
    name = Printf.sprintf "aimd(a=%g,b=%g)" a b;
    increase = (fun _ -> a);
    decrease = (fun w -> (1. -. b) *. w);
  }

let tcp_compatible_aimd ~b =
  let a = 4. *. ((2. *. b) -. (b *. b)) /. 3. in
  { (aimd ~a ~b) with name = Printf.sprintf "tcp(%g)" b }

let binomial ~k ~l ~a ~b =
  if a <= 0. || b <= 0. then invalid_arg "Window_cc.binomial";
  {
    name = Printf.sprintf "binomial(k=%g,l=%g,a=%g,b=%g)" k l a b;
    increase = (fun w -> a /. (w ** k));
    decrease = (fun w -> w -. (b *. (w ** l)));
  }

(* Deterministic steady-state sawtooth of [rule] at loss-event rate [p]:
   one loss event every 1/p packets.  A cycle starts at w0 = decrease(W),
   grows by increase(w) per RTT (the amount grow_window's per-ack
   increments sum to over one window of acks), and ends at peak W once
   the cycle has carried 1/p packets.  The peak is the fixed point of
   that map; iterate it.  For AIMD(1, 1/2) this reproduces the classic
   sqrt(3/(2p)) packets-per-RTT average (Analysis.Response_function's
   [pure_aimd]); for the binomial rules it is the paper's generalized
   sawtooth.  Returns (average packets per RTT, peak window), or [None]
   when [p] gives no finite cycle. *)
let sawtooth_model ~rule ~max_window ~p =
  if (not (Float.is_finite p)) || p <= 0. || p >= 1. then None
  else begin
    let target = 1. /. p in
    let cycle w_peak =
      let w = ref (Float.max 1. (rule.decrease w_peak)) in
      let pkts = ref 0. and rtts = ref 0 in
      while !pkts < target && !rtts < 1_000_000 do
        pkts := !pkts +. !w;
        incr rtts;
        w := Float.min max_window (!w +. Float.max 0. (rule.increase !w))
      done;
      (!w, !pkts, !rtts)
    in
    let w = ref 10. in
    (try
       for _ = 1 to 64 do
         let w', _, _ = cycle !w in
         if Float.abs (w' -. !w) <= 1e-9 *. Float.max 1. !w then begin
           w := w';
           raise Exit
         end;
         w := w'
       done
     with Exit -> ());
    let w_peak, pkts, rtts = cycle !w in
    if rtts = 0 then None else Some (pkts /. float_of_int rtts, w_peak)
  end

module IntSet = Set.Make (Int)

type config = {
  rule : rule;
  sack : bool;
  pkt_size : int;
  initial_window : float;
  initial_ssthresh : float option;
  max_window : float;
  min_rto : float;
  total_pkts : int option;
  on_complete : (unit -> unit) option;
}

let default_config rule =
  {
    rule;
    sack = false;
    pkt_size = 1000;
    initial_window = 2.;
    initial_ssthresh = None;
    max_window = 10000.;
    min_rto = 0.2;
    total_pkts = None;
    on_complete = None;
  }

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  flow_id : int;
  sink : Sink.t;
  (* --- sender state --- *)
  mutable running : bool;
  mutable finished : bool;
  mutable snd_una : int;  (* lowest unacked sequence number *)
  mutable snd_nxt : int;  (* next new sequence number to send *)
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable high_water : int;  (* highest sequence ever transmitted + 1 *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* fast-recovery exit point *)
  mutable first_partial_done : bool;  (* NewReno "Impatient" timer rule *)
  mutable no_fastrtx_until : float;  (* quiet period after a timeout *)
  mutable ecn_guard : int;  (* no new ECN reduction until acked past this *)
  (* --- SACK scoreboard (cfg.sack only) --- *)
  mutable sacked : IntSet.t;  (* selectively acked seqs above snd_una *)
  mutable hole_rtx : IntSet.t;  (* holes retransmitted this recovery *)
  (* --- RTT estimation --- *)
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_valid : bool;
  mutable backoff : float;
  mutable rto_timer : Engine.Sim.timer;
      (* one reusable timer for the flow's lifetime: re-arming per ack
         allocates nothing, unlike an [after_cancellable] handle *)
  (* BSD-style RTT timing: one probe segment at a time, invalidated by any
     retransmission episode (Karn's algorithm).  Timing via cumulative
     acks of arbitrary segments would charge hole-recovery time to the
     path and blow up the estimate under heavy loss. *)
  mutable rtt_probe : (int * float) option;  (* seq, send time *)
  (* --- counters --- *)
  mutable pkts_sent : int;
  mutable bytes_sent : int;
  mutable n_timeouts : int;
  mutable n_fast_rtx : int;
  mutable n_rtx_pkts : int;
  (* --- fluid fast-forward --- *)
  mutable ff_suspended : bool;
  mutable ff_delivered : int;  (* fluid pkts credited since suspend *)
}

(* Reno-style inflation: each dupack during fast recovery signals a packet
   that left the network, allowing one transmission.  Outside recovery
   dupacks never widen the window (duplicate data after a go-back-N
   retransmission would otherwise snowball). *)
let effective_window t =
  if t.in_recovery && not t.cfg.sack then t.cwnd +. float_of_int t.dupacks
  else t.cwnd
let inflight t = t.snd_nxt - t.snd_una

(* RFC 3517-style pipe estimate: selectively acked segments are no longer
   in the network. *)
let pipe t =
  if t.cfg.sack then inflight t - IntSet.cardinal t.sacked else inflight t

let current_rto t =
  Rto.timeout ~min_rto:t.cfg.min_rto ~backoff:t.backoff ~rtt_valid:t.rtt_valid
    ~srtt:t.srtt ~rttvar:t.rttvar

let transmit t ~seq =
  let pkt =
    Netsim.Packet.make ~size:t.cfg.pkt_size ~seq ~flow:t.flow_id
      ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst)
      ~sent_at:(Engine.Sim.now t.sim) ()
  in
  t.pkts_sent <- t.pkts_sent + 1;
  t.bytes_sent <- t.bytes_sent + t.cfg.pkt_size;
  if seq < t.high_water then begin
    (* Retransmission: never time it, and invalidate any probe it could
       overlap (Karn). *)
    t.n_rtx_pkts <- t.n_rtx_pkts + 1;
    (match t.rtt_probe with
    | Some (probe_seq, _) when probe_seq >= seq -> t.rtt_probe <- None
    | Some _ | None -> ())
  end
  else begin
    if t.rtt_probe = None then
      t.rtt_probe <- Some (seq, Engine.Sim.now t.sim);
    t.high_water <- seq + 1
  end;
  Netsim.Node.inject t.src pkt

(* Merge the ack's SACK blocks into the scoreboard, pruning below the
   cumulative point. *)
let merge_sack t blocks =
  List.iter
    (fun (lo, hi) ->
      for seq = lo to hi - 1 do
        if seq >= t.snd_una && seq < t.snd_nxt then
          t.sacked <- IntSet.add seq t.sacked
      done)
    blocks;
  t.sacked <- IntSet.filter (fun seq -> seq >= t.snd_una) t.sacked

(* A hole is deemed lost when at least three selectively acked segments
   lie above it (the SACK analogue of three dupacks). *)
let next_lost_hole t =
  if IntSet.is_empty t.sacked then None
  else begin
    let above seq =
      IntSet.cardinal (IntSet.filter (fun x -> x > seq) t.sacked)
    in
    let rec scan seq =
      if seq >= t.snd_nxt then None
      else if IntSet.mem seq t.sacked then scan (seq + 1)
      else if IntSet.mem seq t.hole_rtx then scan (seq + 1)
      else if above seq >= 3 then Some seq
      else None
    in
    scan t.snd_una
  end

let cancel_rto t = Engine.Sim.disarm t.rto_timer

let restart_rto t =
  if t.running && t.snd_una < t.snd_nxt then
    Engine.Sim.arm_after t.rto_timer (current_rto t)
  else cancel_rto t

let on_rto t =
  if t.running && t.snd_una < t.snd_nxt then begin
    t.n_timeouts <- t.n_timeouts + 1;
    Log.debug (fun m ->
        m "t=%.3f flow=%d rto: cwnd=%.1f backoff=%.0fx snd_una=%d"
          (Engine.Sim.now t.sim) t.flow_id t.cwnd t.backoff t.snd_una);
    t.ssthresh <- Float.max 2. (t.cfg.rule.decrease t.cwnd);
    t.cwnd <- 1.;
    t.backoff <- Rto.double_backoff t.backoff;
    t.in_recovery <- false;
    t.dupacks <- 0;
    (* Go-back-N: resume from the first hole; everything in flight is
       presumed lost (how ns-2's one-bit-ack TCPs behave on timeout). *)
    t.snd_nxt <- t.snd_una;
    (* Dupacks caused by pre-timeout duplicates must not trigger fast
       retransmit until the whole old window is acked (RFC 6582 s4). *)
    t.recover <- t.high_water;
    t.sacked <- IntSet.empty;
    t.hole_rtx <- IntSet.empty;
    t.no_fastrtx_until <-
      Engine.Sim.now t.sim +. (if t.rtt_valid then t.srtt else t.cfg.min_rto);
    transmit t ~seq:t.snd_nxt;
    t.snd_nxt <- t.snd_nxt + 1;
    restart_rto t
  end

let total_limit t =
  match t.cfg.total_pkts with Some n -> n | None -> max_int

let try_send t =
  if t.running then begin
    let limit = total_limit t in
    if t.cfg.sack then begin
      (* Fill the pipe: retransmit deemed-lost holes first, then new data. *)
      let progress = ref true in
      while !progress && float_of_int (pipe t) < Float.floor (effective_window t)
      do
        match next_lost_hole t with
        | Some hole ->
          transmit t ~seq:hole;
          t.hole_rtx <- IntSet.add hole t.hole_rtx
        | None ->
          if t.snd_nxt < limit then begin
            transmit t ~seq:t.snd_nxt;
            t.snd_nxt <- t.snd_nxt + 1
          end
          else progress := false
      done
    end
    else
      while
        t.snd_nxt < limit
        && float_of_int (inflight t) < Float.floor (effective_window t)
      do
        transmit t ~seq:t.snd_nxt;
        t.snd_nxt <- t.snd_nxt + 1
      done;
    if not (Engine.Sim.timer_armed t.rto_timer) then restart_rto t
  end

let sample_rtt t ~acked_up_to =
  match t.rtt_probe with
  | Some (seq, sent_at) when acked_up_to > seq ->
    t.rtt_probe <- None;
    let sample = Engine.Sim.now t.sim -. sent_at in
    if t.rtt_valid then begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
    end
    else begin
      t.srtt <- sample;
      t.rttvar <- sample /. 2.;
      t.rtt_valid <- true
    end
  | Some _ | None -> ()

let grow_window t ~acked_pkts =
  for _ = 1 to acked_pkts do
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
    else t.cwnd <- t.cwnd +. (t.cfg.rule.increase t.cwnd /. t.cwnd)
  done;
  t.cwnd <- Float.min t.cwnd t.cfg.max_window

let congestion_decrease t =
  t.ssthresh <- Float.max 2. (t.cfg.rule.decrease t.cwnd);
  t.cwnd <- t.ssthresh

let complete t =
  if not t.finished then begin
    t.finished <- true;
    t.running <- false;
    cancel_rto t;
    match t.cfg.on_complete with Some f -> f () | None -> ()
  end

let enter_fast_recovery t =
  t.n_fast_rtx <- t.n_fast_rtx + 1;
  Log.debug (fun m ->
      m "t=%.3f flow=%d fast retransmit: cwnd=%.1f snd_una=%d"
        (Engine.Sim.now t.sim) t.flow_id t.cwnd t.snd_una);
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  t.first_partial_done <- false;
  t.hole_rtx <- IntSet.empty;
  congestion_decrease t;
  transmit t ~seq:t.snd_una;
  restart_rto t

let on_new_ack t cum =
  let acked = cum - t.snd_una in
  sample_rtt t ~acked_up_to:cum;
  t.snd_una <- cum;
  t.backoff <- 1.;
  if t.cfg.sack then begin
    t.sacked <- IntSet.filter (fun seq -> seq >= cum) t.sacked;
    t.hole_rtx <- IntSet.filter (fun seq -> seq >= cum) t.hole_rtx
  end;
  if t.in_recovery then begin
    if cum > t.recover then begin
      (* Full ack: recovery over; window already set by the decrease. *)
      t.in_recovery <- false;
      t.dupacks <- 0;
      t.hole_rtx <- IntSet.empty;
      restart_rto t
    end
    else begin
      (* Partial ack: the next hole is lost too.  With SACK the scoreboard
         drives retransmissions from try_send; without it, retransmit the
         hole directly (NewReno).  Per NewReno's "Impatient" variant only
         the first partial ack restarts the retransmit timer, so recovery
         from a large loss burst ends in a timeout instead of dragging on
         for one hole per RTT. *)
      if not t.cfg.sack then transmit t ~seq:t.snd_una;
      t.dupacks <- max 0 (t.dupacks - acked);
      if not t.first_partial_done then begin
        t.first_partial_done <- true;
        restart_rto t
      end
    end
  end
  else begin
    t.dupacks <- 0;
    grow_window t ~acked_pkts:acked;
    restart_rto t
  end;
  if t.snd_una >= total_limit t then complete t else try_send t

let on_dup_ack t =
  if not t.finished then begin
    t.dupacks <- t.dupacks + 1;
    if
      (not t.in_recovery)
      && t.dupacks = 3
      && t.snd_una > t.recover
      && Engine.Sim.now t.sim >= t.no_fastrtx_until
    then enter_fast_recovery t
    else try_send t
  end

let on_ecn t =
  if t.snd_una > t.ecn_guard then begin
    congestion_decrease t;
    t.ecn_guard <- t.snd_nxt
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  (if t.running then
     match pkt.Netsim.Packet.payload with
     | Netsim.Packet.Ack { cum_seq; sack } ->
       if t.cfg.sack then merge_sack t sack;
       if pkt.Netsim.Packet.ecn then on_ecn t;
       if cum_seq > t.snd_una then on_new_ack t cum_seq
       else if cum_seq = t.snd_una && t.snd_una < t.snd_nxt then on_dup_ack t
       (* cum_seq < snd_una: a stale ack from before a timeout's go-back-N
          rewind.  It carries no information about the current window and
          must not count towards the three-dupack threshold. *)
     | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
     | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
       ());
  (* This sender is the sole consumer of its sink's pooled acks; nothing
     above retains the packet or its sack list past this point. *)
  Netsim.Packet.release pkt

let create ~sim ~src ~dst ~flow cfg =
  if cfg.initial_window < 1. then invalid_arg "Window_cc: initial_window";
  let sink =
    Sink.attach ~sack:cfg.sack ~sim ~node:dst ~flow ~peer:(Netsim.Node.id src)
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
      finished = false;
      snd_una = 0;
      snd_nxt = 0;
      high_water = 0;
      cwnd = cfg.initial_window;
      ssthresh =
        (match cfg.initial_ssthresh with
        | Some s -> s
        | None -> cfg.max_window);
      dupacks = 0;
      in_recovery = false;
      recover = -1;
      first_partial_done = false;
      no_fastrtx_until = 0.;
      ecn_guard = 0;
      sacked = IntSet.empty;
      hole_rtx = IntSet.empty;
      srtt = 0.;
      rttvar = 0.;
      rtt_valid = false;
      backoff = 1.;
      rto_timer = Engine.Sim.timer sim ignore;
      rtt_probe = None;
      pkts_sent = 0;
      bytes_sent = 0;
      n_timeouts = 0;
      n_fast_rtx = 0;
      n_rtx_pkts = 0;
      ff_suspended = false;
      ff_delivered = 0;
    }
  in
  t.rto_timer <- Engine.Sim.timer sim (fun () -> on_rto t);
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let start t =
  if not (t.running || t.finished) then begin
    t.running <- true;
    try_send t
  end

let stop t =
  t.running <- false;
  cancel_rto t

(* --- fluid fast-forward ------------------------------------------------ *)

(* Freeze the sender.  In-flight data drains to the sink (whose acks the
   non-running sender ignores and releases); the RTO must not fire while
   frozen.  Idempotent; a no-op unless the flow is actively running. *)
let ff_suspend t =
  if t.running && not t.ff_suspended then begin
    t.ff_suspended <- true;
    t.running <- false;
    cancel_rto t;
    t.rtt_probe <- None
  end

(* Fold fluid-model packets into the counters: [sent] offered to the
   path, [delivered] of them carried to the sink.  The seq frontier moves
   at resume, in one jump. *)
let ff_credit t ~sent ~delivered =
  if t.ff_suspended && sent >= 0 && delivered >= 0 then begin
    t.pkts_sent <- t.pkts_sent + sent;
    t.bytes_sent <- t.bytes_sent + (sent * t.cfg.pkt_size);
    t.ff_delivered <- t.ff_delivered + delivered;
    Sink.ff_credit t.sink ~pkts:delivered ~pkt_size:t.cfg.pkt_size
  end

(* Analytic steady-state rate at loss-event rate [p], packets/s: the
   rule's sawtooth average over the flow's measured RTT.  0 until an RTT
   sample exists (the controller will not credit such a flow). *)
let ff_rate_pps t ~p =
  if t.rtt_valid && t.srtt > 0. then
    match sawtooth_model ~rule:t.cfg.rule ~max_window:t.cfg.max_window ~p with
    | Some (pkts_per_rtt, _) -> pkts_per_rtt /. t.srtt
    | None -> t.cwnd /. t.srtt  (* p = 0: keep the current window's rate *)
  else 0.

(* Thaw: re-seed exact packet-level state consistent with steady state at
   loss-event rate [p] and resume transmission.  The re-seed contract:
   the window is set to the sawtooth average (ssthresh to the
   post-decrease peak, as if a loss event had just ended a cycle); the
   seq/ack frontier jumps past everything ever transmitted plus the
   credited fluid packets, and the sink's receive frontier jumps with it,
   so the resumed exchange is hole-free; all loss-recovery machinery is
   cleared.  The bottleneck queue refills within the first RTT of
   resumed packet traffic. *)
let ff_resume t ~p =
  if t.ff_suspended then begin
    t.ff_suspended <- false;
    (match sawtooth_model ~rule:t.cfg.rule ~max_window:t.cfg.max_window ~p with
    | Some (avg, peak) when t.rtt_valid ->
      t.cwnd <- Float.min t.cfg.max_window (Float.max 1. avg);
      t.ssthresh <- Float.max 2. (t.cfg.rule.decrease peak)
    | Some _ | None -> ());
    let s = max t.high_water (Sink.cumulative t.sink) + t.ff_delivered in
    t.ff_delivered <- 0;
    t.snd_una <- s;
    t.snd_nxt <- s;
    t.high_water <- s;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.recover <- s - 1;
    t.first_partial_done <- false;
    t.sacked <- IntSet.empty;
    t.hole_rtx <- IntSet.empty;
    t.rtt_probe <- None;
    t.backoff <- 1.;
    t.ecn_guard <- s - 1;
    Sink.fast_forward t.sink ~next_expected:s;
    if not t.finished then begin
      t.running <- true;
      try_send t
    end
  end

(* Short transfers have a completion point the fluid model would blow
   through; only long-lived flows publish fast-forward hooks. *)
let ff_ops t =
  if t.cfg.total_pkts <> None then None
  else
    Some
      {
        Flow.ff_pkt_size = t.cfg.pkt_size;
        ff_rate_pps = (fun ~p -> ff_rate_pps t ~p);
        ff_suspend = (fun () -> ff_suspend t);
        ff_credit = (fun ~sent ~delivered -> ff_credit t ~sent ~delivered);
        ff_resume = (fun ~p -> ff_resume t ~p);
      }

(* --- state export/import ----------------------------------------------- *)

(* The slice of sender state the fast-forward re-seed contract covers;
   shared with [Flow_soa] so hybrid tests can compare the two engines
   field by field. *)
type state = {
  s_cwnd : float;
  s_ssthresh : float;
  s_snd_una : int;
  s_snd_nxt : int;
  s_high_water : int;
  s_srtt : float;
  s_rttvar : float;
  s_rtt_valid : bool;
  s_backoff : float;
}

let export_state t =
  {
    s_cwnd = t.cwnd;
    s_ssthresh = t.ssthresh;
    s_snd_una = t.snd_una;
    s_snd_nxt = t.snd_nxt;
    s_high_water = t.high_water;
    s_srtt = t.srtt;
    s_rttvar = t.rttvar;
    s_rtt_valid = t.rtt_valid;
    s_backoff = t.backoff;
  }

(* Import clears the transient loss-recovery machinery: an imported
   state is by definition between recovery episodes. *)
let import_state t s =
  t.cwnd <- s.s_cwnd;
  t.ssthresh <- s.s_ssthresh;
  t.snd_una <- s.s_snd_una;
  t.snd_nxt <- s.s_snd_nxt;
  t.high_water <- s.s_high_water;
  t.srtt <- s.s_srtt;
  t.rttvar <- s.s_rttvar;
  t.rtt_valid <- s.s_rtt_valid;
  t.backoff <- s.s_backoff;
  t.dupacks <- 0;
  t.in_recovery <- false;
  t.recover <- s.s_snd_una - 1;
  t.first_partial_done <- false;
  t.sacked <- IntSet.empty;
  t.hole_rtx <- IntSet.empty;
  t.rtt_probe <- None

let flow t =
  {
    Flow.id = t.flow_id;
    protocol = t.cfg.rule.name;
    start = (fun () -> start t);
    stop = (fun () -> stop t);
    pkts_sent = (fun () -> t.pkts_sent);
    bytes_sent = (fun () -> float_of_int t.bytes_sent);
    bytes_delivered = (fun () -> Sink.bytes_received t.sink);
    current_rate =
      (fun () ->
        if t.rtt_valid && t.srtt > 0. then
          t.cwnd *. float_of_int t.cfg.pkt_size /. t.srtt
        else 0.);
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
    ff = ff_ops t;
  }

let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let srtt t = t.srtt
let rto t = current_rto t
let timeouts t = t.n_timeouts
let fast_retransmits t = t.n_fast_rtx
let retransmitted_pkts t = t.n_rtx_pkts
let finished t = t.finished

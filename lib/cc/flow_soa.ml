module IntSet = Set.Make (Int)

type config = {
  rule : Window_cc.rule;
  pkt_size : int;
  ack_batching : bool;
}

let default_config rule = { rule; pkt_size = 1000; ack_batching = false }

(* Per-flow booleans, the RTO backoff exponent and the dupack count share
   one int cell ([misc]): many-flow state has to stay close to the ~200
   bytes/flow budget, and none of these fields needs more than a few
   bits.  The backoff multiplier is always an exact power of two in
   [1, 64] (it doubles per timeout and resets to 1 on any new ack), so
   three bits of exponent reproduce the per-object float exactly. *)
let f_running = 1
let f_recovery = 2
let f_partial = 4 (* NewReno "Impatient": first partial ack seen *)
let f_rttvalid = 8
let f_ecn = 16 (* sink: CE seen since last ack *)
let f_apending = 32 (* sink: coalesced ack queued (batching mode) *)
let backoff_shift = 6
let backoff_mask = 7 lsl backoff_shift
let dup_shift = 9
let dup_lo_mask = (1 lsl dup_shift) - 1

type t = {
  sim : Engine.Sim.t;
  cfg : config;
  reno : Window_cc.config; (* the per-object engine's defaults for cfg.rule *)
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  src_id : int;
  dst_id : int;
  base : int; (* first flow id; flow id of index i is base + i *)
  n : int;
  (* --- sender state, one slot per flow --- *)
  cwnd : floatarray;
  ssthresh : floatarray;
  srtt : floatarray;
  rttvar : floatarray;
  rto_deadline : floatarray; (* infinity = timer disarmed *)
  slot : floatarray; (* tracked wheel-entry time; infinity = none *)
  no_fastrtx_until : floatarray;
  probe_time : floatarray;
  snd_una : int array;
  snd_nxt : int array;
  high_water : int array;
  recover : int array;
  probe_seq : int array; (* -1 = no RTT probe in flight *)
  n_rtx : int array;
  n_to : int array;
  n_frtx : int array;
  misc : int array;
  ecn_guard : int array;
  (* --- sink state --- *)
  next_expected : int array;
  rcv_pkts : int array;
  (* Out-of-order buffer, small-case inlined: in the many-flow overload
     regime most flows buffer at most ONE segment at a time, and a
     one-element [IntSet] costs five boxed words per flow.  [ooo1.(i)]
     holds that single seq (-1 = empty); flows that accumulate a second
     one spill the whole set to [ooo_more] (ooo1 = -2 marks the spill).
     Same set semantics as the per-object sink, ~28 fewer bytes/flow. *)
  ooo1 : int array;
  ooo_more : (int, IntSet.t) Hashtbl.t;
  (* --- consolidated RTO timer wheel ---
     One calendar queue of flow indexes replaces n per-flow [Sim.timer]s.
     Every wheel entry carries a seq burned from the *simulator's*
     insertion counter ([Sim.alloc_seq]) at exactly the point a per-flow
     timer would have inserted a queue entry, so the wheel is a
     bit-exact mirror of the timer subset of the per-object engine's
     event queue.  A single shared [service] closure is kept scheduled
     at the wheel minimum via [Sim.at_seq] — same (time, seq) position,
     so firing order interleaves with non-timer events exactly as the
     per-object engine's would, including at exact-float-time
     collisions.  [out_*] is a stack of the (time, seq) pairs of
     outstanding [service] entries: when the wheel minimum drops, a new
     entry is scheduled and the old one is orphaned; on fire, the
     outstanding minimum IS the firing entry (the simulator pops in
     (time, seq) order), and it is live iff it equals the wheel min. *)
  wheel : Rto_wheel.t;
  (* Flows with a tracked wheel entry (slot < infinity).  Lazy
     deadline-chasing strands orphaned entries in the wheel; when the
     wheel grows past [2 * tracked + 64] a sweep drops every entry whose
     time no longer matches its flow's [slot], bounding stale
     accumulation without touching the survivors' pop order. *)
  mutable tracked : int;
  mutable out_times : floatarray;
  mutable out_seqs : int array;
  mutable out_n : int;
  mutable service_fn : unit -> unit;
  (* --- ack batching (cfg.ack_batching only) --- *)
  pending : int array; (* flow indexes with a coalesced ack queued *)
  mutable pending_n : int;
  mutable flush_at : float; (* instant of the queued flush event; nan = none *)
  mutable flush_fn : unit -> unit;
}

let n t = t.n
let[@inline] flow_id t i = t.base + i
let[@inline] get_flag t i bit = t.misc.(i) land bit <> 0

let[@inline] set_flag t i bit v =
  if v then t.misc.(i) <- t.misc.(i) lor bit
  else t.misc.(i) <- t.misc.(i) land lnot bit

let[@inline] dupacks t i = t.misc.(i) lsr dup_shift

let[@inline] set_dupacks t i d =
  t.misc.(i) <- t.misc.(i) land dup_lo_mask lor (d lsl dup_shift)

let[@inline] backoff t i =
  float_of_int (1 lsl ((t.misc.(i) land backoff_mask) lsr backoff_shift))

let[@inline] set_backoff_exp t i e =
  t.misc.(i) <- t.misc.(i) land lnot backoff_mask lor (e lsl backoff_shift)

let[@inline] double_backoff t i =
  let e = (t.misc.(i) land backoff_mask) lsr backoff_shift in
  set_backoff_exp t i (min 6 (e + 1))

let[@inline] inflight t i = t.snd_nxt.(i) - t.snd_una.(i)

let effective_window t i =
  if get_flag t i f_recovery then
    Float.Array.get t.cwnd i +. float_of_int (dupacks t i)
  else Float.Array.get t.cwnd i

let current_rto t i =
  Rto.timeout ~min_rto:t.reno.Window_cc.min_rto ~backoff:(backoff t i)
    ~rtt_valid:(get_flag t i f_rttvalid) ~srtt:(Float.Array.get t.srtt i)
    ~rttvar:(Float.Array.get t.rttvar i)

let transmit t i ~seq =
  let pkt =
    Netsim.Packet.make ~size:t.cfg.pkt_size ~seq ~flow:(flow_id t i)
      ~src:t.src_id ~dst:t.dst_id ~sent_at:(Engine.Sim.now t.sim) ()
  in
  if seq < t.high_water.(i) then begin
    t.n_rtx.(i) <- t.n_rtx.(i) + 1;
    (* Karn: a retransmission episode invalidates any probe it overlaps. *)
    if t.probe_seq.(i) >= seq then t.probe_seq.(i) <- -1
  end
  else begin
    if t.probe_seq.(i) < 0 then begin
      t.probe_seq.(i) <- seq;
      Float.Array.set t.probe_time i (Engine.Sim.now t.sim)
    end;
    t.high_water.(i) <- seq + 1
  end;
  Netsim.Node.inject t.src pkt

(* --- consolidated RTO wheel ------------------------------------------- *)

let cancel_rto t i = Float.Array.set t.rto_deadline i Float.infinity

(* Every [slot] write goes through here so [tracked] counts exactly the
   flows holding a live wheel entry. *)
let[@inline] set_slot t i v =
  let old = Float.Array.get t.slot i in
  if old = Float.infinity then begin
    if v < Float.infinity then t.tracked <- t.tracked + 1
  end
  else if v = Float.infinity then t.tracked <- t.tracked - 1;
  Float.Array.set t.slot i v

(* Outstanding-entry stack: (time, seq) pairs, each push strictly below
   the one under it, so the top is the lexicographic minimum. *)

let out_push t time seq =
  if t.out_n = Float.Array.length t.out_times then begin
    let cap = 2 * t.out_n in
    let nt = Float.Array.make cap 0. in
    Float.Array.blit t.out_times 0 nt 0 t.out_n;
    let ns = Array.make cap 0 in
    Array.blit t.out_seqs 0 ns 0 t.out_n;
    t.out_times <- nt;
    t.out_seqs <- ns
  end;
  Float.Array.set t.out_times t.out_n time;
  t.out_seqs.(t.out_n) <- seq;
  t.out_n <- t.out_n + 1

let[@inline] out_min_time t = Float.Array.get t.out_times (t.out_n - 1)
let[@inline] out_min_seq t = t.out_seqs.(t.out_n - 1)

(* Insert flow [i]'s wheel entry at [time], burning the simulator seq a
   per-flow timer's [q_add] would have burned here.  A freshly allocated
   seq exceeds every outstanding one, so the entry is the new minimum
   (and needs a physical [service] entry) iff its time is strictly
   earlier than the outstanding minimum's. *)
let wheel_insert t i time =
  let seq = Engine.Sim.alloc_seq t.sim in
  Rto_wheel.add t.wheel ~time ~seq ~flow:i;
  if t.out_n = 0 || time < out_min_time t then begin
    Engine.Sim.at_seq t.sim time ~seq t.service_fn;
    out_push t time seq
  end;
  (* Stale-entry bound: sweep orphans once they outnumber live entries.
     Entries removed here would pop as no-ops (their time no longer
     matches [slot]), so pruning them cannot change any firing; at worst
     an outstanding [service] entry finds a later minimum and re-arms. *)
  if Rto_wheel.size t.wheel > (2 * t.tracked) + 64 then
    Rto_wheel.filter t.wheel ~keep:(fun ~flow ~time ->
        Float.Array.get t.slot flow = time)

(* Arm flow [i]'s RTO at absolute [time].  Like the lazy [Sim.timer],
   each flow keeps at most one tracked wheel entry ([slot]); arming
   later than the pending entry just moves the deadline cell and the
   entry chases it when it pops.  Invariant while armed: slot <=
   deadline. *)
let arm_rto t i time =
  Float.Array.set t.rto_deadline i time;
  if Float.Array.get t.slot i > time then begin
    set_slot t i time;
    wheel_insert t i time
  end

let restart_rto t i =
  if get_flag t i f_running && t.snd_una.(i) < t.snd_nxt.(i) then
    arm_rto t i (Engine.Sim.now t.sim +. current_rto t i)
  else cancel_rto t i

let on_rto t i =
  if get_flag t i f_running && t.snd_una.(i) < t.snd_nxt.(i) then begin
    t.n_to.(i) <- t.n_to.(i) + 1;
    Float.Array.set t.ssthresh i
      (Float.max 2. (t.cfg.rule.Window_cc.decrease (Float.Array.get t.cwnd i)));
    Float.Array.set t.cwnd i 1.;
    double_backoff t i;
    set_flag t i f_recovery false;
    set_dupacks t i 0;
    (* Go-back-N, as in the per-object sender. *)
    t.snd_nxt.(i) <- t.snd_una.(i);
    t.recover.(i) <- t.high_water.(i);
    Float.Array.set t.no_fastrtx_until i
      (Engine.Sim.now t.sim
      +.
      if get_flag t i f_rttvalid then Float.Array.get t.srtt i
      else t.reno.Window_cc.min_rto);
    transmit t i ~seq:t.snd_nxt.(i);
    t.snd_nxt.(i) <- t.snd_nxt.(i) + 1;
    restart_rto t i
  end

(* Keep one physical [service] entry at the wheel minimum's exact
   (time, seq) position.  If the outstanding minimum is already at or
   before it, that entry covers the wheel min (it fires first, no-ops if
   stale, and re-ensures). *)
let ensure_service t =
  if not (Rto_wheel.is_empty t.wheel) then begin
    let tm = Rto_wheel.min_time t.wheel in
    let sm = Rto_wheel.min_seq t.wheel in
    if
      t.out_n = 0
      || tm < out_min_time t
      || (tm = out_min_time t && sm < out_min_seq t)
    then begin
      Engine.Sim.at_seq t.sim tm ~seq:sm t.service_fn;
      out_push t tm sm
    end
  end

(* A [service] entry fired.  The firing entry is the outstanding
   minimum; it is live iff its (time, seq) equals the wheel minimum's,
   in which case exactly ONE wheel entry pops — one logical timer entry
   per simulator event, exactly as per-flow timers behave, so same-time
   non-timer events with in-between seqs run in between.  A popped entry
   is live for its flow iff its time matches [slot] (time-only, the same
   test the lazy [Sim.timer] applies to its tracked entry); a live entry
   whose deadline moved later chases it with a fresh (time, seq), and
   stale entries and disarmed flows fall through. *)
let service t =
  let tf = out_min_time t in
  let sf = out_min_seq t in
  t.out_n <- t.out_n - 1;
  (if not (Rto_wheel.is_empty t.wheel) then begin
     let tm = Rto_wheel.min_time t.wheel in
     let sm = Rto_wheel.min_seq t.wheel in
     if tm = tf && sm = sf then begin
       let i = Rto_wheel.take t.wheel in
       if Float.Array.get t.slot i = tf then begin
         set_slot t i Float.infinity;
         let d = Float.Array.get t.rto_deadline i in
         if d = tf then begin
           Float.Array.set t.rto_deadline i Float.infinity;
           on_rto t i
         end
         else if d < Float.infinity then begin
           set_slot t i d;
           wheel_insert t i d
         end
       end
     end
   end);
  ensure_service t

(* --- sender ----------------------------------------------------------- *)

let try_send t i =
  if get_flag t i f_running then begin
    while
      float_of_int (inflight t i) < Float.floor (effective_window t i)
    do
      transmit t i ~seq:t.snd_nxt.(i);
      t.snd_nxt.(i) <- t.snd_nxt.(i) + 1
    done;
    if Float.Array.get t.rto_deadline i = Float.infinity then restart_rto t i
  end

let sample_rtt t i ~acked_up_to =
  let ps = t.probe_seq.(i) in
  if ps >= 0 && acked_up_to > ps then begin
    t.probe_seq.(i) <- -1;
    let sample = Engine.Sim.now t.sim -. Float.Array.get t.probe_time i in
    if get_flag t i f_rttvalid then begin
      let srtt = Float.Array.get t.srtt i in
      Float.Array.set t.rttvar i
        ((0.75 *. Float.Array.get t.rttvar i)
        +. (0.25 *. Float.abs (srtt -. sample)));
      Float.Array.set t.srtt i ((0.875 *. srtt) +. (0.125 *. sample))
    end
    else begin
      Float.Array.set t.srtt i sample;
      Float.Array.set t.rttvar i (sample /. 2.);
      set_flag t i f_rttvalid true
    end
  end

let grow_window t i ~acked_pkts =
  let w = ref (Float.Array.get t.cwnd i) in
  let ss = Float.Array.get t.ssthresh i in
  for _ = 1 to acked_pkts do
    if !w < ss then w := !w +. 1.
    else w := !w +. (t.cfg.rule.Window_cc.increase !w /. !w)
  done;
  Float.Array.set t.cwnd i (Float.min !w t.reno.Window_cc.max_window)

let congestion_decrease t i =
  let ss =
    Float.max 2. (t.cfg.rule.Window_cc.decrease (Float.Array.get t.cwnd i))
  in
  Float.Array.set t.ssthresh i ss;
  Float.Array.set t.cwnd i ss

let enter_fast_recovery t i =
  t.n_frtx.(i) <- t.n_frtx.(i) + 1;
  set_flag t i f_recovery true;
  t.recover.(i) <- t.snd_nxt.(i);
  set_flag t i f_partial false;
  congestion_decrease t i;
  transmit t i ~seq:t.snd_una.(i);
  restart_rto t i

let on_new_ack t i cum =
  let acked = cum - t.snd_una.(i) in
  sample_rtt t i ~acked_up_to:cum;
  t.snd_una.(i) <- cum;
  set_backoff_exp t i 0;
  if get_flag t i f_recovery then begin
    if cum > t.recover.(i) then begin
      set_flag t i f_recovery false;
      set_dupacks t i 0;
      restart_rto t i
    end
    else begin
      (* Partial ack: retransmit the next hole (NewReno); only the first
         partial ack restarts the retransmit timer ("Impatient"). *)
      transmit t i ~seq:t.snd_una.(i);
      set_dupacks t i (max 0 (dupacks t i - acked));
      if not (get_flag t i f_partial) then begin
        set_flag t i f_partial true;
        restart_rto t i
      end
    end
  end
  else begin
    set_dupacks t i 0;
    grow_window t i ~acked_pkts:acked;
    restart_rto t i
  end;
  try_send t i

let on_dup_ack t i =
  set_dupacks t i (dupacks t i + 1);
  if
    (not (get_flag t i f_recovery))
    && dupacks t i = 3
    && t.snd_una.(i) > t.recover.(i)
    && Engine.Sim.now t.sim >= Float.Array.get t.no_fastrtx_until i
  then enter_fast_recovery t i
  else try_send t i

let on_ecn t i =
  if t.snd_una.(i) > t.ecn_guard.(i) then begin
    congestion_decrease t i;
    t.ecn_guard.(i) <- t.snd_nxt.(i)
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  let i = pkt.Netsim.Packet.flow - t.base in
  (if get_flag t i f_running then
     match pkt.Netsim.Packet.payload with
     | Netsim.Packet.Ack { cum_seq; sack = _ } ->
       if pkt.Netsim.Packet.ecn then on_ecn t i;
       if cum_seq > t.snd_una.(i) then on_new_ack t i cum_seq
       else if cum_seq = t.snd_una.(i) && t.snd_una.(i) < t.snd_nxt.(i) then
         on_dup_ack t i
       (* cum_seq < snd_una: stale ack from before a go-back-N rewind. *)
     | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _
     | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tfrc_fb _
     | Netsim.Packet.Tear_fb _ ->
       ());
  Netsim.Packet.release pkt

(* --- sink ------------------------------------------------------------- *)

let send_ack t i =
  let ack =
    Netsim.Packet.alloc_ack ~size:Sink.ack_size ~flow:(flow_id t i)
      ~src:t.dst_id ~dst:t.src_id ~sent_at:(Engine.Sim.now t.sim)
      ~cum_seq:t.next_expected.(i) ~sack:[]
  in
  ack.Netsim.Packet.ecn <- get_flag t i f_ecn;
  set_flag t i f_ecn false;
  Netsim.Node.inject t.dst ack

(* Batching: acks generated within one event-loop instant coalesce per
   flow.  The flush event is scheduled at the current instant, so FIFO
   ordering runs it after every already-queued same-instant delivery but
   before the clock advances — one ack per flow per instant, carrying
   the fully advanced cumulative point and the OR of CE marks. *)
let flush_acks t =
  t.flush_at <- Float.nan;
  let count = t.pending_n in
  t.pending_n <- 0;
  for k = 0 to count - 1 do
    let i = t.pending.(k) in
    set_flag t i f_apending false;
    send_ack t i
  done

let queue_ack t i =
  if not (get_flag t i f_apending) then begin
    set_flag t i f_apending true;
    t.pending.(t.pending_n) <- i;
    t.pending_n <- t.pending_n + 1;
    let tnow = Engine.Sim.now t.sim in
    if t.flush_at <> tnow then begin
      t.flush_at <- tnow;
      Engine.Sim.at t.sim tnow t.flush_fn
    end
  end

let handle_data t (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Plain ->
    let i = pkt.Netsim.Packet.flow - t.base in
    t.rcv_pkts.(i) <- t.rcv_pkts.(i) + 1;
    if pkt.Netsim.Packet.ecn then set_flag t i f_ecn true;
    let seq = pkt.Netsim.Packet.seq in
    if seq = t.next_expected.(i) then begin
      t.next_expected.(i) <- seq + 1;
      (match t.ooo1.(i) with
      | -1 -> ()
      | -2 ->
        let ooo = ref (Hashtbl.find t.ooo_more i) in
        while IntSet.mem t.next_expected.(i) !ooo do
          ooo := IntSet.remove t.next_expected.(i) !ooo;
          t.next_expected.(i) <- t.next_expected.(i) + 1
        done;
        (match IntSet.cardinal !ooo with
        | 0 ->
          Hashtbl.remove t.ooo_more i;
          t.ooo1.(i) <- -1
        | 1 ->
          Hashtbl.remove t.ooo_more i;
          t.ooo1.(i) <- IntSet.min_elt !ooo
        | _ -> Hashtbl.replace t.ooo_more i !ooo)
      | s ->
        if s = t.next_expected.(i) then begin
          t.ooo1.(i) <- -1;
          t.next_expected.(i) <- s + 1
        end)
    end
    else if seq > t.next_expected.(i) then begin
      match t.ooo1.(i) with
      | -1 -> t.ooo1.(i) <- seq
      | -2 ->
        Hashtbl.replace t.ooo_more i
          (IntSet.add seq (Hashtbl.find t.ooo_more i))
      | s ->
        if s <> seq then begin
          t.ooo1.(i) <- -2;
          Hashtbl.replace t.ooo_more i (IntSet.add seq (IntSet.singleton s))
        end
    end;
    if t.cfg.ack_batching then queue_ack t i else send_ack t i
  | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    ()

(* --- construction / control ------------------------------------------- *)

let create ~sim ~src ~dst ~base ~n cfg =
  if n < 1 then invalid_arg "Flow_soa.create: n >= 1 required";
  if n > Rto_wheel.max_flows then
    invalid_arg "Flow_soa.create: n exceeds Rto_wheel.max_flows";
  if base < 0 then invalid_arg "Flow_soa.create: base >= 0 required";
  let reno = Window_cc.default_config cfg.rule in
  let ssthresh0 =
    match reno.Window_cc.initial_ssthresh with
    | Some s -> s
    | None -> reno.Window_cc.max_window
  in
  let t =
    {
      sim;
      cfg;
      reno;
      src;
      dst;
      src_id = Netsim.Node.id src;
      dst_id = Netsim.Node.id dst;
      base;
      n;
      cwnd = Float.Array.make n reno.Window_cc.initial_window;
      ssthresh = Float.Array.make n ssthresh0;
      srtt = Float.Array.make n 0.;
      rttvar = Float.Array.make n 0.;
      rto_deadline = Float.Array.make n Float.infinity;
      slot = Float.Array.make n Float.infinity;
      no_fastrtx_until = Float.Array.make n 0.;
      probe_time = Float.Array.make n 0.;
      snd_una = Array.make n 0;
      snd_nxt = Array.make n 0;
      high_water = Array.make n 0;
      recover = Array.make n (-1);
      probe_seq = Array.make n (-1);
      n_rtx = Array.make n 0;
      n_to = Array.make n 0;
      n_frtx = Array.make n 0;
      misc = Array.make n 0;
      ecn_guard = Array.make n 0;
      next_expected = Array.make n 0;
      rcv_pkts = Array.make n 0;
      ooo1 = Array.make n (-1);
      ooo_more = Hashtbl.create 16;
      wheel = Rto_wheel.create ();
      tracked = 0;
      out_times = Float.Array.make 8 0.;
      out_seqs = Array.make 8 0;
      out_n = 0;
      service_fn = ignore;
      pending = Array.make (if cfg.ack_batching then n else 1) 0;
      pending_n = 0;
      flush_at = Float.nan;
      flush_fn = ignore;
    }
  in
  t.service_fn <- (fun () -> service t);
  t.flush_fn <- (fun () -> flush_acks t);
  Netsim.Node.reserve src ~flows:(base + n);
  Netsim.Node.reserve dst ~flows:(base + n);
  let acks = handle_ack t and data = handle_data t in
  for i = 0 to n - 1 do
    Netsim.Node.attach src ~flow:(base + i) acks;
    Netsim.Node.attach dst ~flow:(base + i) data
  done;
  t

let start t i =
  if not (get_flag t i f_running) then begin
    set_flag t i f_running true;
    try_send t i
  end

let stop t i =
  set_flag t i f_running false;
  cancel_rto t i

(* --- stats ------------------------------------------------------------ *)

(* Derived rather than stored: every transmit either advances high_water
   by exactly one (new data) or bumps n_rtx (retransmission), so the
   struct-of-arrays layout drops two counters per flow. *)
let pkts_sent t i = t.high_water.(i) + t.n_rtx.(i)
let bytes_sent t i = float_of_int (pkts_sent t i * t.cfg.pkt_size)
let delivered_pkts t i = t.rcv_pkts.(i)
let bytes_delivered t i = float_of_int (t.rcv_pkts.(i) * t.cfg.pkt_size)
let srtt t i = Float.Array.get t.srtt i
let cwnd t i = Float.Array.get t.cwnd i
let timeouts t i = t.n_to.(i)
let fast_retransmits t i = t.n_frtx.(i)
let retransmitted_pkts t i = t.n_rtx.(i)

let stats t i =
  {
    Flow.sent_pkts = pkts_sent t i;
    sent_bytes = bytes_sent t i;
    delivered_bytes = bytes_delivered t i;
    rtx_pkts = t.n_rtx.(i);
    timeouts = t.n_to.(i);
    fast_rtx = t.n_frtx.(i);
    stat_srtt = Float.Array.get t.srtt i;
  }

(* --- wheel introspection (tests) -------------------------------------- *)

let wheel_size t = Rto_wheel.size t.wheel
let wheel_tracked t = t.tracked

(* --- state snapshot ----------------------------------------------------
   Same slice of sender state as [Window_cc.export_state]/[import_state]
   (the fast-forward re-seed contract), so hybrid-engine code and tests
   can move a flow between the two engines' representations. *)

let export_state t i =
  {
    Window_cc.s_cwnd = Float.Array.get t.cwnd i;
    s_ssthresh = Float.Array.get t.ssthresh i;
    s_snd_una = t.snd_una.(i);
    s_snd_nxt = t.snd_nxt.(i);
    s_high_water = t.high_water.(i);
    s_srtt = Float.Array.get t.srtt i;
    s_rttvar = Float.Array.get t.rttvar i;
    s_rtt_valid = get_flag t i f_rttvalid;
    s_backoff = backoff t i;
  }

let import_state t i (s : Window_cc.state) =
  Float.Array.set t.cwnd i s.Window_cc.s_cwnd;
  Float.Array.set t.ssthresh i s.s_ssthresh;
  t.snd_una.(i) <- s.s_snd_una;
  t.snd_nxt.(i) <- s.s_snd_nxt;
  t.high_water.(i) <- s.s_high_water;
  Float.Array.set t.srtt i s.s_srtt;
  Float.Array.set t.rttvar i s.s_rttvar;
  set_flag t i f_rttvalid s.s_rtt_valid;
  (let e = ref 0 in
   while !e < 6 && float_of_int (1 lsl !e) < s.s_backoff do
     incr e
   done;
   set_backoff_exp t i !e);
  (* Transient loss-recovery machinery is cleared, as in Window_cc. *)
  set_flag t i f_recovery false;
  set_flag t i f_partial false;
  set_dupacks t i 0;
  t.recover.(i) <- s.s_snd_una - 1;
  t.probe_seq.(i) <- -1;
  Float.Array.set t.no_fastrtx_until i 0.

let flow t i =
  {
    Flow.id = flow_id t i;
    protocol = t.cfg.rule.Window_cc.name;
    start = (fun () -> start t i);
    stop = (fun () -> stop t i);
    pkts_sent = (fun () -> pkts_sent t i);
    bytes_sent = (fun () -> bytes_sent t i);
    bytes_delivered = (fun () -> bytes_delivered t i);
    current_rate =
      (fun () ->
        let srtt = Float.Array.get t.srtt i in
        if get_flag t i f_rttvalid && srtt > 0. then
          Float.Array.get t.cwnd i *. float_of_int t.cfg.pkt_size /. srtt
        else 0.);
    srtt = (fun () -> Float.Array.get t.srtt i);
    stats = (fun () -> stats t i);
    (* SoA flows are driven in bulk by [ff_advance]/[export_state]; the
       per-flow closure interface stays fluid-free. *)
    ff = None;
  }

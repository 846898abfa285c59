let log_src =
  Logs.Src.create "slowcc.window_cc" ~doc:"Windowed congestion control events"

module Log = (val Logs.src_log log_src)
module IntSet = Set.Make (Int)
module Cq = Engine.Calendar_queue

(* Per-flow booleans, the RTO backoff exponent and the dupack count share
   one int cell ([misc]): many-flow state has to stay close to the ~200
   bytes/flow budget, and none of these fields needs more than a few
   bits.  The backoff multiplier is always an exact power of two in
   [1, 64] (it doubles per timeout and resets to 1 on any new ack), so
   three bits of exponent are the whole multiplier. *)
let f_running = 1
let f_recovery = 2
let f_partial = 4 (* NewReno "Impatient": first partial ack seen *)
let f_rttvalid = 8
let f_ecn = 16 (* sink: CE seen since last ack *)
let f_finished = 32 (* bounded transfer fully acked *)
let backoff_shift = 6
let backoff_mask = 7 lsl backoff_shift
let dup_shift = 9
let dup_lo_mask = (1 lsl dup_shift) - 1

(* RTO wheel keys pack the simulator seq above the flow index.  Seqs are
   unique, so at equal times key order is seq order: the (time, seq)
   order per-flow timers pop in.  Flow indexes get 20 bits, which caps
   [n] at 2^20. *)
let flow_bits = 20
let max_flows = 1 lsl flow_bits
let flow_mask = max_flows - 1
let[@inline] wheel_key ~seq i = (seq lsl flow_bits) lor i
let[@inline] key_seq key = key lsr flow_bits
let[@inline] key_flow key = key land flow_mask

(* Per-flow state lives in two blocks, field-major: slot [k] of flow
   [i] is at [k * n + i], so each field is contiguous across flows (as
   separate arrays would be) while an engine pays for two headers
   instead of 21.  That matters for one-slot engines, one per figure
   flow.  Float slots are a [floatarray]; int slots are 32-bit cells of
   one [Bytes], half what an [int array] cell takes.  Every int slot
   holds a sequence number, a counter, the packed [misc] bits or a small
   sentinel, so 32 bits cover 2^31 packets per flow; a store that does
   not fit raises instead of wrapping. *)

(* Float slots. *)
module F = struct
  let cwnd = 0
  let ssthresh = 1
  let srtt = 2
  let rttvar = 3
  let deadline = 4 (* RTO deadline; infinity = timer disarmed *)
  let slot = 5 (* tracked wheel-entry time; infinity = none *)
  let no_fastrtx_until = 6 (* quiet period after a timeout *)
  let probe_time = 7
  let count = 8
end

(* Int slots. *)
module I = struct
  let una = 0 (* lowest unacked sequence number *)
  let nxt = 1 (* next new sequence number to send *)
  let hw = 2 (* highest sequence ever transmitted + 1 *)
  let recover = 3 (* fast-recovery exit point *)

  (* BSD-style RTT timing: one probe segment at a time, invalidated by
     any retransmission episode (Karn's algorithm).  Timing via
     cumulative acks of arbitrary segments would charge hole-recovery
     time to the path and blow up the estimate under heavy loss. *)
  let probe_seq = 4 (* -1 = no RTT probe in flight *)
  let n_rtx = 5
  let n_to = 6
  let n_frtx = 7
  let misc = 8
  let ecn_guard = 9 (* no new ECN reduction until acked past this *)

  (* sink *)
  let next_expected = 10
  let rcv_pkts = 11

  (* Out-of-order buffer, small-case inlined: in the many-flow overload
     regime most flows buffer at most ONE segment at a time, and a
     one-element [IntSet] costs five boxed words per flow.  [ooo1] holds
     that single seq (-1 = empty); flows that accumulate a second one
     spill the whole set to [ooo_more] (ooo1 = -2 marks the spill), a
     table created on the first spill. *)
  let ooo1 = 12
  let count = 13
end

(* Native-endian 32-bit loads and stores, bounds-checked.  Declared as
   primitives so no [int32] is ever boxed: [Int32.to_int (get32 b o)]
   compiles to one sign-extending load. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let slot_min = Int32.to_int Int32.min_int
let slot_max = Int32.to_int Int32.max_int

type t = {
  sim : Engine.Sim.t;
  cfg : Window_cc.config;
  limit : int; (* cfg.total_pkts; max_int for unbounded flows *)
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  base : int; (* first flow id; flow id of index i is base + i *)
  n : int;
  floats : floatarray; (* F slots *)
  ints : Bytes.t; (* I slots, 4 bytes each *)
  mutable ooo_more : (int, IntSet.t) Hashtbl.t option; (* see [I.ooo1] *)
  (* --- SACK scoreboard: one slot per flow when cfg.sack, else [||] --- *)
  sacked : IntSet.t array; (* selectively acked seqs above snd_una *)
  hole_rtx : IntSet.t array; (* holes retransmitted this recovery *)
  (* --- consolidated RTO timer wheel ---
     One calendar queue of keyed entries ([wheel_key]: seq and flow
     index in one word) replaces n per-flow [Sim.timer]s.
     Every wheel entry carries a seq burned from the *simulator's*
     insertion counter ([Sim.alloc_seq]) at exactly the point a per-flow
     timer would have inserted a queue entry, so the wheel is a
     bit-exact mirror of the timer subset of a per-flow-timer engine's
     event queue.  A single shared [service] closure is kept scheduled
     at the wheel minimum via [Sim.at_seq] — same (time, seq) position,
     so firing order interleaves with non-timer events exactly as
     per-flow timers would, including at exact-float-time collisions.
     [out_*] is a stack of the (time, seq) pairs of outstanding
     [service] entries: when the wheel minimum drops, a new entry is
     scheduled and the old one is orphaned; on fire, the outstanding
     minimum IS the firing entry (the simulator pops in (time, seq)
     order), and it is live iff it equals the wheel min. *)
  wheel : unit Cq.t;
  (* Flows with a tracked wheel entry (slot < infinity).  Lazy
     deadline-chasing strands orphaned entries in the wheel; when the
     wheel grows past [2 * tracked + 64] a sweep drops every entry
     whose time no longer matches its flow's [slot], bounding stale
     accumulation without touching the survivors' pop order. *)
  mutable tracked : int;
  mutable out_times : floatarray;
  mutable out_seqs : int array;
  mutable out_n : int;
  mutable service_fn : unit -> unit;
}

let n t = t.n
let[@inline] fget t k i = Float.Array.get t.floats ((k * t.n) + i)
let[@inline] fset t k i v = Float.Array.set t.floats ((k * t.n) + i) v
let[@inline] iget t k i = Int32.to_int (get32 t.ints (4 * ((k * t.n) + i)))

let slot_overflow v =
  invalid_arg (Printf.sprintf "Flow_soa: %d does not fit a 32-bit slot" v)

let[@inline] iset t k i v =
  if v < slot_min || v > slot_max then slot_overflow v;
  set32 t.ints (4 * ((k * t.n) + i)) (Int32.of_int v)

let[@inline] flow_id t i = t.base + i
let[@inline] get_flag t i bit = iget t I.misc i land bit <> 0

let[@inline] set_flag t i bit v =
  if v then iset t I.misc i (iget t I.misc i lor bit)
  else iset t I.misc i (iget t I.misc i land lnot bit)

let[@inline] dupacks t i = iget t I.misc i lsr dup_shift

let[@inline] set_dupacks t i d =
  iset t I.misc i (iget t I.misc i land dup_lo_mask lor (d lsl dup_shift))

let[@inline] backoff_exp t i = (iget t I.misc i land backoff_mask) lsr backoff_shift
let[@inline] backoff t i = float_of_int (1 lsl backoff_exp t i)

let[@inline] set_backoff_exp t i e =
  iset t I.misc i (iget t I.misc i land lnot backoff_mask lor (e lsl backoff_shift))

let[@inline] double_backoff t i = set_backoff_exp t i (min 6 (backoff_exp t i + 1))
let[@inline] inflight t i = iget t I.nxt i - iget t I.una i

(* Reno-style inflation: each dupack during fast recovery signals a
   packet that left the network, allowing one transmission.  Outside
   recovery dupacks never widen the window (duplicate data after a
   go-back-N retransmission would otherwise snowball).  With SACK the
   scoreboard's pipe estimate does that job instead. *)
let[@inline] effective_window t i =
  if get_flag t i f_recovery && not t.cfg.Window_cc.sack then
    fget t F.cwnd i +. float_of_int (dupacks t i)
  else fget t F.cwnd i

(* RFC 3517-style pipe estimate: selectively acked segments are no
   longer in the network. *)
let pipe t i =
  if t.cfg.Window_cc.sack then inflight t i - IntSet.cardinal t.sacked.(i)
  else inflight t i

let[@inline] current_rto t i =
  Rto.slot_timeout ~min_rto:t.cfg.Window_cc.min_rto ~backoff_exp:(backoff_exp t i)
    ~rtt_valid:(get_flag t i f_rttvalid) t.floats
    ~srtt:((F.srtt * t.n) + i) ~rttvar:((F.rttvar * t.n) + i)

let transmit t i ~seq =
  let pkt =
    Netsim.Packet.make ~size:t.cfg.Window_cc.pkt_size ~seq
      ~payload:Netsim.Packet.Plain ~flow:(flow_id t i)
      ~src:(Netsim.Node.id t.src) ~dst:(Netsim.Node.id t.dst)
  in
  if seq < iget t I.hw i then begin
    iset t I.n_rtx i (iget t I.n_rtx i + 1);
    (* Karn: a retransmission episode invalidates any probe it overlaps. *)
    if iget t I.probe_seq i >= seq then iset t I.probe_seq i (-1)
  end
  else begin
    if iget t I.probe_seq i < 0 then begin
      iset t I.probe_seq i seq;
      fset t F.probe_time i (Engine.Sim.now t.sim)
    end;
    iset t I.hw i (seq + 1)
  end;
  Netsim.Node.inject t.src pkt

let clear_sack t i =
  if t.cfg.Window_cc.sack then begin
    t.sacked.(i) <- IntSet.empty;
    t.hole_rtx.(i) <- IntSet.empty
  end

(* --- consolidated RTO wheel ------------------------------------------- *)

let cancel_rto t i = fset t F.deadline i Float.infinity

(* Every [slot] write goes through here so [tracked] counts exactly the
   flows holding a live wheel entry. *)
let[@inline] set_slot t i v =
  let old = fget t F.slot i in
  if old = Float.infinity then begin
    if v < Float.infinity then t.tracked <- t.tracked + 1
  end
  else if v = Float.infinity then t.tracked <- t.tracked - 1;
  fset t F.slot i v

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
   per-flow timer's queue insert would have burned here.  A freshly
   allocated seq exceeds every outstanding one, so the entry is the new
   minimum (and needs a physical [service] entry) iff its time is
   strictly earlier than the outstanding minimum's. *)
let wheel_insert t i time =
  let seq = Engine.Sim.alloc_seq t.sim in
  Cq.add_key t.wheel ~time ~key:(wheel_key ~seq i);
  if t.out_n = 0 || time < out_min_time t then begin
    Engine.Sim.at_seq t.sim time ~seq t.service_fn;
    out_push t time seq
  end;
  (* Stale-entry bound: sweep orphans once they outnumber live entries.
     Entries removed here would pop as no-ops (their time no longer
     matches [slot]), so pruning them cannot change any firing; at worst
     an outstanding [service] entry finds a later minimum and re-arms. *)
  if Cq.size t.wheel > (2 * t.tracked) + 64 then
    Cq.filter t.wheel ~keep:(fun ~key ~time ->
        fget t F.slot (key_flow key) = time)

(* Arm flow [i]'s RTO at absolute [time].  Like the lazy [Sim.timer],
   each flow keeps at most one tracked wheel entry ([slot]); arming
   later than the pending entry just moves the deadline cell and the
   entry chases it when it pops.  Invariant while armed: slot <=
   deadline. *)
let[@inline] arm_rto t i time =
  fset t F.deadline i time;
  if fget t F.slot i > time then begin
    set_slot t i time;
    wheel_insert t i time
  end

let restart_rto t i =
  if get_flag t i f_running && iget t I.una i < iget t I.nxt i then
    arm_rto t i (Engine.Sim.now t.sim +. current_rto t i)
  else cancel_rto t i

let on_rto t i =
  if get_flag t i f_running && iget t I.una i < iget t I.nxt i then begin
    iset t I.n_to i (iget t I.n_to i + 1);
    Log.debug (fun m ->
        m "t=%.3f flow=%d rto: cwnd=%.1f backoff=%.0fx snd_una=%d"
          (Engine.Sim.now t.sim) (flow_id t i) (fget t F.cwnd i)
          (backoff t i) (iget t I.una i));
    fset t F.ssthresh i
      (Float.max 2. (t.cfg.rule.Window_cc.decrease (fget t F.cwnd i)));
    fset t F.cwnd i 1.;
    double_backoff t i;
    set_flag t i f_recovery false;
    set_dupacks t i 0;
    (* Go-back-N: resume from the first hole; everything in flight is
       presumed lost (how ns-2's one-bit-ack TCPs behave on timeout). *)
    iset t I.nxt i (iget t I.una i);
    (* Dupacks caused by pre-timeout duplicates must not trigger fast
       retransmit until the whole old window is acked (RFC 6582 s4). *)
    iset t I.recover i (iget t I.hw i);
    clear_sack t i;
    fset t F.no_fastrtx_until i
      (Engine.Sim.now t.sim
      +.
      if get_flag t i f_rttvalid then fget t F.srtt i
      else t.cfg.Window_cc.min_rto);
    transmit t i ~seq:(iget t I.nxt i);
    iset t I.nxt i (iget t I.nxt i + 1);
    restart_rto t i
  end

(* Keep one physical [service] entry at the wheel minimum's exact
   (time, seq) = ([tm], [sm]) position.  If the outstanding minimum is
   already at or before it, that entry covers the wheel min (it fires
   first, no-ops if stale, and re-ensures). *)
let cover_min t tm sm =
  if
    t.out_n = 0
    || tm < out_min_time t
    || (tm = out_min_time t && sm < out_min_seq t)
  then begin
    Engine.Sim.at_seq t.sim tm ~seq:sm t.service_fn;
    out_push t tm sm
  end

let ensure_service t =
  if not (Cq.is_empty t.wheel) then
    cover_min t (Cq.min_time t.wheel) (key_seq (Cq.min_key t.wheel))

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
  if not (Cq.is_empty t.wheel) then begin
    let tm = Cq.min_time t.wheel in
    let sm = key_seq (Cq.min_key t.wheel) in
    if tm = tf && sm = sf then begin
      let i = key_flow (Cq.take_key t.wheel) in
      if fget t F.slot i = tf then begin
        set_slot t i Float.infinity;
        let d = fget t F.deadline i in
        if d = tf then begin
          fset t F.deadline i Float.infinity;
          on_rto t i
        end
        else if d < Float.infinity then begin
          set_slot t i d;
          wheel_insert t i d
        end
      end;
      ensure_service t
    end
    else cover_min t tm sm
  end

(* --- SACK scoreboard (cfg.sack only) ---------------------------------- *)

(* Merge the ack's SACK blocks into the scoreboard, pruning below the
   cumulative point. *)
let rec merge_blocks t i = function
  | [] -> ()
  | (lo, hi) :: rest ->
    for seq = lo to hi - 1 do
      if seq >= iget t I.una i && seq < iget t I.nxt i then
        t.sacked.(i) <- IntSet.add seq t.sacked.(i)
    done;
    merge_blocks t i rest

let merge_sack t i blocks =
  merge_blocks t i blocks;
  let una = iget t I.una i in
  t.sacked.(i) <- IntSet.filter (fun seq -> seq >= una) t.sacked.(i)

(* A hole is deemed lost when at least three selectively acked segments
   lie above it (the SACK analogue of three dupacks).  Scans up from
   [seq]; -1 when there is none. *)
let rec lost_hole t i sacked seq =
  if seq >= iget t I.nxt i then -1
  else if IntSet.mem seq sacked || IntSet.mem seq t.hole_rtx.(i) then
    lost_hole t i sacked (seq + 1)
  else if IntSet.fold (fun x k -> if x > seq then k + 1 else k) sacked 0 >= 3
  then seq
  else -1

let next_lost_hole t i =
  let sacked = t.sacked.(i) in
  if IntSet.is_empty sacked then -1 else lost_hole t i sacked (iget t I.una i)

(* --- sender ----------------------------------------------------------- *)

let try_send t i =
  if get_flag t i f_running then begin
    if t.cfg.Window_cc.sack then begin
      (* Fill the pipe: retransmit deemed-lost holes first, then new data. *)
      let progress = ref true in
      while
        !progress && float_of_int (pipe t i) < Float.floor (effective_window t i)
      do
        let hole = next_lost_hole t i in
        if hole >= 0 then begin
          transmit t i ~seq:hole;
          t.hole_rtx.(i) <- IntSet.add hole t.hole_rtx.(i)
        end
        else if iget t I.nxt i < t.limit then begin
          transmit t i ~seq:(iget t I.nxt i);
          iset t I.nxt i (iget t I.nxt i + 1)
        end
        else progress := false
      done
    end
    else
      while
        iget t I.nxt i < t.limit
        && float_of_int (inflight t i) < Float.floor (effective_window t i)
      do
        transmit t i ~seq:(iget t I.nxt i);
        iset t I.nxt i (iget t I.nxt i + 1)
      done;
    if fget t F.deadline i = Float.infinity then restart_rto t i
  end

let sample_rtt t i ~acked_up_to =
  let ps = iget t I.probe_seq i in
  if ps >= 0 && acked_up_to > ps then begin
    iset t I.probe_seq i (-1);
    let sample = Engine.Sim.now t.sim -. fget t F.probe_time i in
    if get_flag t i f_rttvalid then begin
      let srtt = fget t F.srtt i in
      fset t F.rttvar i
        ((0.75 *. fget t F.rttvar i)
        +. (0.25 *. Float.abs (srtt -. sample)));
      fset t F.srtt i ((0.875 *. srtt) +. (0.125 *. sample))
    end
    else begin
      fset t F.srtt i sample;
      fset t F.rttvar i (sample /. 2.);
      set_flag t i f_rttvalid true
    end
  end

let grow_window t i ~acked_pkts =
  let w = ref (fget t F.cwnd i) in
  let ss = fget t F.ssthresh i in
  for _ = 1 to acked_pkts do
    if !w < ss then w := !w +. 1.
    else w := !w +. (t.cfg.rule.Window_cc.increase !w /. !w)
  done;
  fset t F.cwnd i (Float.min !w t.cfg.Window_cc.max_window)

let congestion_decrease t i =
  let ss =
    Float.max 2. (t.cfg.rule.Window_cc.decrease (fget t F.cwnd i))
  in
  fset t F.ssthresh i ss;
  fset t F.cwnd i ss

let complete t i =
  if not (get_flag t i f_finished) then begin
    set_flag t i f_finished true;
    set_flag t i f_running false;
    cancel_rto t i;
    match t.cfg.Window_cc.on_complete with Some f -> f (flow_id t i) | None -> ()
  end

let enter_fast_recovery t i =
  iset t I.n_frtx i (iget t I.n_frtx i + 1);
  Log.debug (fun m ->
      m "t=%.3f flow=%d fast retransmit: cwnd=%.1f snd_una=%d"
        (Engine.Sim.now t.sim) (flow_id t i) (fget t F.cwnd i)
        (iget t I.una i));
  set_flag t i f_recovery true;
  iset t I.recover i (iget t I.nxt i);
  set_flag t i f_partial false;
  if t.cfg.Window_cc.sack then t.hole_rtx.(i) <- IntSet.empty;
  congestion_decrease t i;
  transmit t i ~seq:(iget t I.una i);
  restart_rto t i

let on_new_ack t i cum =
  let acked = cum - iget t I.una i in
  sample_rtt t i ~acked_up_to:cum;
  iset t I.una i cum;
  set_backoff_exp t i 0;
  if t.cfg.Window_cc.sack then begin
    t.sacked.(i) <- IntSet.filter (fun seq -> seq >= cum) t.sacked.(i);
    t.hole_rtx.(i) <- IntSet.filter (fun seq -> seq >= cum) t.hole_rtx.(i)
  end;
  if get_flag t i f_recovery then begin
    if cum > iget t I.recover i then begin
      (* Full ack: recovery over; window already set by the decrease. *)
      set_flag t i f_recovery false;
      set_dupacks t i 0;
      if t.cfg.Window_cc.sack then t.hole_rtx.(i) <- IntSet.empty;
      restart_rto t i
    end
    else begin
      (* Partial ack: the next hole is lost too.  With SACK the
         scoreboard drives retransmissions from try_send; without it,
         retransmit the hole directly (NewReno).  Per NewReno's
         "Impatient" variant only the first partial ack restarts the
         retransmit timer, so recovery from a large loss burst ends in a
         timeout instead of dragging on for one hole per RTT. *)
      if not t.cfg.Window_cc.sack then transmit t i ~seq:(iget t I.una i);
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
  if cum >= t.limit then complete t i else try_send t i

let on_dup_ack t i =
  set_dupacks t i (dupacks t i + 1);
  if
    (not (get_flag t i f_recovery))
    && dupacks t i = 3
    && iget t I.una i > iget t I.recover i
    && Engine.Sim.now t.sim >= fget t F.no_fastrtx_until i
  then enter_fast_recovery t i
  else try_send t i

let on_ecn t i =
  if iget t I.una i > iget t I.ecn_guard i then begin
    congestion_decrease t i;
    iset t I.ecn_guard i (iget t I.nxt i)
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  let i = pkt.Netsim.Packet.flow - t.base in
  if get_flag t i f_running then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Ack { cum_seq; sack } ->
      if t.cfg.Window_cc.sack then merge_sack t i sack;
      if pkt.Netsim.Packet.ecn then on_ecn t i;
      if cum_seq > iget t I.una i then on_new_ack t i cum_seq
      else if cum_seq = iget t I.una i && iget t I.una i < iget t I.nxt i then
        on_dup_ack t i
      (* cum_seq < snd_una: a stale ack from before a timeout's go-back-N
         rewind.  It carries no information about the current window and
         must not count towards the three-dupack threshold. *)
    | Netsim.Packet.Plain | Netsim.Packet.Rap_ack _
    | Netsim.Packet.Tfrc_data _ | Netsim.Packet.Tfrc_fb _
    | Netsim.Packet.Tear_fb _ ->
      ()

(* --- sink ------------------------------------------------------------- *)

(* The spill table, created on the first spill: an engine whose flows
   never buffer two segments at once does not pay for it. *)
let spilled t =
  match t.ooo_more with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 16 in
    t.ooo_more <- Some h;
    h

(* Contiguous runs of the out-of-order buffer as SACK blocks [lo, hi),
   highest (most useful) first, at most three. *)
let sack_blocks t i =
  match iget t I.ooo1 i with
  | -1 -> []
  | -2 ->
    let runs, current =
      IntSet.fold
        (fun seq (runs, current) ->
          match current with
          | Some (lo, hi) when seq = hi -> (runs, Some (lo, hi + 1))
          | Some run -> (run :: runs, Some (seq, seq + 1))
          | None -> (runs, Some (seq, seq + 1)))
        (Hashtbl.find (spilled t) i) ([], None)
    in
    let runs = match current with Some run -> run :: runs | None -> runs in
    List.filteri (fun k _ -> k < 3) runs
  | s -> [ (s, s + 1) ]

let send_ack t i =
  let sack = if t.cfg.Window_cc.sack then sack_blocks t i else [] in
  let ack =
    Netsim.Packet.make ~size:Sink.ack_size ~seq:0 ~flow:(flow_id t i)
      ~src:(Netsim.Node.id t.dst) ~dst:(Netsim.Node.id t.src)
      ~payload:
        (Netsim.Packet.Ack { cum_seq = iget t I.next_expected i; sack })
  in
  ack.Netsim.Packet.ecn <- get_flag t i f_ecn;
  set_flag t i f_ecn false;
  Netsim.Node.inject t.dst ack

let clear_ooo t i =
  if iget t I.ooo1 i = -2 then Hashtbl.remove (spilled t) i;
  iset t I.ooo1 i (-1)

let handle_data t (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Plain ->
    let i = pkt.Netsim.Packet.flow - t.base in
    iset t I.rcv_pkts i (iget t I.rcv_pkts i + 1);
    if pkt.Netsim.Packet.ecn then set_flag t i f_ecn true;
    let seq = pkt.Netsim.Packet.seq in
    if seq = iget t I.next_expected i then begin
      iset t I.next_expected i (seq + 1);
      match iget t I.ooo1 i with
      | -1 -> ()
      | -2 ->
        let ooo = ref (Hashtbl.find (spilled t) i) in
        while IntSet.mem (iget t I.next_expected i) !ooo do
          ooo := IntSet.remove (iget t I.next_expected i) !ooo;
          iset t I.next_expected i (iget t I.next_expected i + 1)
        done;
        (match IntSet.cardinal !ooo with
        | 0 -> clear_ooo t i
        | 1 ->
          Hashtbl.remove (spilled t) i;
          iset t I.ooo1 i (IntSet.min_elt !ooo)
        | _ -> Hashtbl.replace (spilled t) i !ooo)
      | s ->
        if s = iget t I.next_expected i then begin
          iset t I.ooo1 i (-1);
          iset t I.next_expected i (s + 1)
        end
    end
    else if seq > iget t I.next_expected i then begin
      match iget t I.ooo1 i with
      | -1 -> iset t I.ooo1 i seq
      | -2 ->
        let h = spilled t in
        Hashtbl.replace h i (IntSet.add seq (Hashtbl.find h i))
      | s ->
        if s <> seq then begin
          iset t I.ooo1 i (-2);
          Hashtbl.replace (spilled t) i (IntSet.add seq (IntSet.singleton s))
        end
    end;
    send_ack t i
  | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_data _
  | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
    ()

(* --- construction / control ------------------------------------------- *)

let create ~sim ~src ~dst ~base ~n (cfg : Window_cc.config) =
  if n < 1 then invalid_arg "Flow_soa.create: n >= 1 required";
  if n > max_flows then invalid_arg "Flow_soa.create: n <= 2^20 required";
  if base < 0 then invalid_arg "Flow_soa.create: base >= 0 required";
  if cfg.initial_window < 1. then
    invalid_arg "Flow_soa.create: initial_window >= 1 required";
  let ssthresh0 =
    match cfg.initial_ssthresh with Some s -> s | None -> cfg.max_window
  in
  let floats = Float.Array.make (F.count * n) 0. in
  Float.Array.fill floats (F.cwnd * n) n cfg.initial_window;
  Float.Array.fill floats (F.ssthresh * n) n ssthresh0;
  Float.Array.fill floats (F.deadline * n) n Float.infinity;
  Float.Array.fill floats (F.slot * n) n Float.infinity;
  let ints = Bytes.make (4 * I.count * n) '\000' in
  (* -1 is all ones in every byte. *)
  List.iter
    (fun k -> Bytes.fill ints (4 * k * n) (4 * n) '\255')
    [ I.recover; I.probe_seq; I.ooo1 ];
  let sack_slots = if cfg.sack then n else 0 in
  let t =
    {
      sim;
      cfg;
      limit = Option.value cfg.total_pkts ~default:max_int;
      src;
      dst;
      base;
      n;
      floats;
      ints;
      ooo_more = None;
      sacked = Array.make sack_slots IntSet.empty;
      hole_rtx = Array.make sack_slots IntSet.empty;
      wheel = Cq.create ();
      tracked = 0;
      out_times = Float.Array.make (min 8 n) 0.;
      out_seqs = Array.make (min 8 n) 0;
      out_n = 0;
      service_fn = ignore;
    }
  in
  t.service_fn <- (fun () -> service t);
  Netsim.Node.attach src ~count:n ~flow:base (fun pkt -> handle_ack t pkt);
  Netsim.Node.attach dst ~count:n ~flow:base (fun pkt -> handle_data t pkt);
  t

let start t i =
  if not (get_flag t i f_running || get_flag t i f_finished) then begin
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
let pkts_sent t i = iget t I.hw i + iget t I.n_rtx i

let bytes_sent t i = float_of_int (pkts_sent t i * t.cfg.pkt_size)
let delivered_pkts t i = iget t I.rcv_pkts i
let bytes_delivered t i = float_of_int (iget t I.rcv_pkts i * t.cfg.pkt_size)
let srtt t i = fget t F.srtt i
let cwnd t i = fget t F.cwnd i
let ssthresh t i = fget t F.ssthresh i
let rto t i = current_rto t i
let inflight t i = inflight t i
let finished t i = get_flag t i f_finished
let timeouts t i = iget t I.n_to i
let fast_retransmits t i = iget t I.n_frtx i
let retransmitted_pkts t i = iget t I.n_rtx i

let stats t i =
  {
    Flow.sent_pkts = pkts_sent t i;
    sent_bytes = bytes_sent t i;
    delivered_bytes = bytes_delivered t i;
    rtx_pkts = iget t I.n_rtx i;
    timeouts = iget t I.n_to i;
    fast_rtx = iget t I.n_frtx i;
    stat_srtt = fget t F.srtt i;
  }

(* --- wheel introspection (tests) -------------------------------------- *)

let wheel_size t = Cq.size t.wheel
let wheel_tracked t = t.tracked

let flow t i =
  {
    Flow.id = flow_id t i;
    protocol = t.cfg.rule.Window_cc.name;
    start = (fun () -> start t i);
    stop = (fun () -> stop t i);
    pkts_sent = (fun () -> pkts_sent t i);
    bytes_sent = (fun () -> bytes_sent t i);
    bytes_delivered = (fun () -> bytes_delivered t i);
    srtt = (fun () -> fget t F.srtt i);
    stats = (fun () -> stats t i);
  }

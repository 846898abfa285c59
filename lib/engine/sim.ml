type t = {
  q : (unit -> unit) Calendar_queue.t;
  clock : floatarray;
      (* cell 0: virtual now.  A floatarray cell instead of a [mutable
         now : float] field — stores into a mixed record box the float on
         every event (no flambda); floatarray stores do not. *)
  mutable running : bool;
  mutable processed : int;
}

let create () =
  {
    q = Calendar_queue.create ();
    clock = Float.Array.make 1 0.;
    running = false;
    processed = 0;
  }

let[@inline] now t = Float.Array.unsafe_get t.clock 0
let[@inline] set_now t time = Float.Array.unsafe_set t.clock 0 time

let at t time f =
  if time < now t then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" time (now t));
  Calendar_queue.add t.q ~time f

(* Explicit-seq scheduling, for aggregating schedulers (the SoA RTO
   wheel): burn a tie-break seq now, insert the one physical entry at
   that logical position later.  See Calendar_queue. *)
let alloc_seq t = Calendar_queue.alloc_seq t.q

let at_seq t time ~seq f =
  if time < now t then
    invalid_arg
      (Printf.sprintf "Sim.at_seq: time %g is in the past (now %g)" time
         (now t));
  Calendar_queue.add_with_seq t.q ~time ~seq f

let[@inline] after t delay f = at t (now t +. delay) f

(* Reusable timers: one guarded closure, zero allocation on re-arm, and —
   crucially for re-arm-heavy users like the TCP RTO, which pushes its
   deadline out on every ack — at most ONE live queue entry per timer.
   [queued] tracks the tracked entry's scheduled time (infinity when
   none).  Arming later than the tracked entry is O(1): the deadline cell
   moves but no event is inserted; when the tracked entry pops it notices
   the deadline is still in the future and re-pushes itself there.
   Arming earlier inserts a new entry and orphans the old one, which
   no-ops on pop ([queued] no longer matches its time).  Cancellation is
   lazy — [disarm] clears [armed] and the entry chain dies on first pop.
   Firing times are identical to eager insertion: the entry chain always
   reaches the live deadline exactly (the simulator sets the clock to the
   event's scheduled time, so [deadline = now] identifies arrival). *)
type timer = {
  tsim : t;
  mutable armed : bool;
  deadline : floatarray;
  queued : floatarray;
      (* cell 0: scheduled time of the tracked queue entry; infinity when
         no entry is live.  Invariant while armed: queued <= deadline. *)
  mutable fire : unit -> unit;
}

let timer t f =
  let tm =
    {
      tsim = t;
      armed = false;
      deadline = Float.Array.create 1;
      queued = Float.Array.make 1 Float.infinity;
      fire = ignore;
    }
  in
  tm.fire <-
    (fun () ->
      let tnow = now t in
      if Float.Array.unsafe_get tm.queued 0 = tnow then begin
        Float.Array.unsafe_set tm.queued 0 Float.infinity;
        if tm.armed then begin
          let d = Float.Array.unsafe_get tm.deadline 0 in
          if d = tnow then begin
            tm.armed <- false;
            f ()
          end
          else begin
            (* Re-armed later since this entry was queued: chase the live
               deadline with a fresh entry. *)
            Float.Array.unsafe_set tm.queued 0 d;
            Calendar_queue.add t.q ~time:d tm.fire
          end
        end
      end);
  tm

let arm_at tm time =
  let t = tm.tsim in
  if time < now t then
    invalid_arg
      (Printf.sprintf "Sim.arm_at: time %g is in the past (now %g)" time
         (now t));
  Float.Array.unsafe_set tm.deadline 0 time;
  tm.armed <- true;
  if Float.Array.unsafe_get tm.queued 0 > time then begin
    Float.Array.unsafe_set tm.queued 0 time;
    Calendar_queue.add t.q ~time tm.fire
  end

let[@inline] arm_after tm delay = arm_at tm (now tm.tsim +. delay)
let disarm tm = tm.armed <- false
let timer_armed tm = tm.armed

let every ?(stop = Float.infinity) t ~interval f =
  if interval <= 0. then invalid_arg "Sim.every: non-positive interval";
  (* One recursive closure per [every] call; each tick reschedules the
     same closure, so steady-state ticking allocates nothing.  Tick k is
     placed at [base +. k *. interval] — recomputed from the base each
     time rather than accumulated, so a long-running probe stays on the
     grid instead of drifting by the summed rounding error. *)
  let base = now t in
  let k = ref 1 in
  let rec tick () =
    let tnow = now t in
    if tnow <= stop then begin
      f ();
      k := !k + 1;
      let next = base +. (float_of_int !k *. interval) in
      let next =
        if next > tnow then next
        else begin
          (* Sub-ulp interval at this magnitude: step k until the grid
             actually advances so the tick chain cannot stall. *)
          let rec bump k' =
            let nx = base +. (float_of_int k' *. interval) in
            if nx > tnow then begin
              k := k';
              nx
            end
            else bump (k' + 1)
          in
          bump (!k + 1)
        end
      in
      if next <= stop then Calendar_queue.add t.q ~time:next tick
    end
  in
  let first = base +. interval in
  if first <= stop then at t first tick

let stop t = t.running <- false

let run ?(until = Float.infinity) t =
  t.running <- true;
  (* The drain loop uses [min_time]/[take] rather than [peek_time]/[pop]:
     no [Some]/tuple allocation per event. *)
  let rec loop () =
    if t.running then begin
      if Calendar_queue.is_empty t.q then t.running <- false
      else begin
        let time = Calendar_queue.min_time t.q in
        if time > until then begin
          (* Leave the event in the queue so the simulation can resume
             from this clock later; park the clock at the horizon. *)
          set_now t until;
          t.running <- false
        end
        else begin
          if Audit.invariants_on () && time < now t then
            Audit.fail
              "Sim.run: event queue returned time %.17g behind the clock \
               %.17g (non-monotone schedule)"
              time (now t);
          let f = Calendar_queue.take t.q in
          set_now t time;
          t.processed <- t.processed + 1;
          f ();
          loop ()
        end
      end
    end
  in
  loop ();
  if Calendar_queue.is_empty t.q && now t < until && Float.is_finite until then
    set_now t until

let events_processed t = t.processed

(* Token-bucket packet pacer on a single reusable [Engine.Sim.timer].

   Rate-paced senders (BBR-style, and eventually Tfrc/Cbr) hand the pacer
   an [emit] callback that transmits one packet and returns [true], or
   returns [false] when the transport has nothing to send right now.  The
   pacer spaces emissions [1 /. rate_pps] apart (at most [burst] = one
   whole token banked), re-arming one timer instead of allocating a fresh
   event per packet, and goes idle — timer disarmed, zero events — when
   [emit] declines.  The transport calls [kick] when data (or window)
   becomes available again.

   Determinism: [kick] never calls [emit] inline from the caller's stack
   (an ack handler would otherwise recurse into the send path mid-event);
   it arms the timer for *now*, so the emission runs as its own scheduler
   event with a stable allocation order.  All arithmetic is plain float
   work on simulated time, so traces are byte-identical run to run. *)

let burst = 1. (* max accumulated tokens *)

type t = {
  sim : Engine.Sim.t;
  mutable rate_pps : float; (* tokens (packets) per simulated second *)
  mutable tokens : float;
  mutable last_refill : float;
  mutable running : bool;
  mutable timer : Engine.Sim.timer;
  mutable emit : unit -> bool;
  mutable sends : int;
}

let refill t =
  let now = Engine.Sim.now t.sim in
  if now > t.last_refill then begin
    t.tokens <-
      Float.min burst (t.tokens +. ((now -. t.last_refill) *. t.rate_pps));
    t.last_refill <- now
  end

(* Timer body: emit while whole tokens remain, then either sleep until the
   next token accrues (transport still hungry) or go idle until [kick].
   The starved branch must strictly advance simulated time: at high clock
   values the deficit [1 - tokens] can be so small that
   [now +. delay = now], and arming the timer for that degenerate instant
   would re-fire it forever without [refill] ever adding a token.  When
   the wake-up cannot advance the clock we forgive the sub-resolution
   deficit (snap to one whole token) and emit now instead. *)
let pump t =
  if t.running && t.rate_pps > 0. then begin
    refill t;
    let continue = ref true in
    while !continue do
      if t.tokens >= 1. then begin
        if t.emit () then begin
          t.tokens <- t.tokens -. 1.;
          t.sends <- t.sends + 1
        end
        else continue := false (* idle, timer disarmed, until [kick] *)
      end
      else begin
        let now = Engine.Sim.now t.sim in
        let delay = (1. -. t.tokens) /. t.rate_pps in
        if now +. delay > now then begin
          Engine.Sim.arm_after t.timer delay;
          continue := false
        end
        else t.tokens <- 1. (* deficit below float resolution at [now] *)
      end
    done
  end

let create ~sim ~emit =
  let t =
    {
      sim;
      rate_pps = 0.;
      tokens = burst;
      last_refill = Engine.Sim.now sim;
      running = false;
      timer = Engine.Sim.timer sim ignore;
      emit;
      sends = 0;
    }
  in
  t.timer <- Engine.Sim.timer sim (fun () -> pump t);
  t

let kick t =
  if t.running && t.rate_pps > 0. && not (Engine.Sim.timer_armed t.timer) then
    Engine.Sim.arm_after t.timer 0.

let set_rate_pps t rate =
  if rate < 0. || not (Float.is_finite rate) then
    invalid_arg "Pacing.set_rate_pps: rate must be finite and >= 0";
  (* Credit tokens accrued at the old rate before swapping. *)
  refill t;
  t.rate_pps <- rate;
  if t.running then
    if rate = 0. then Engine.Sim.disarm t.timer
    else if Engine.Sim.timer_armed t.timer then
      (* A pending wake-up was computed from the old rate; re-derive it.
         An idle pacer (timer disarmed because [emit] declined) is left
         idle — only [kick] wakes it. *)
      Engine.Sim.arm_after t.timer
        (if t.tokens >= 1. then 0. else (1. -. t.tokens) /. rate)

let start t =
  if not t.running then begin
    t.running <- true;
    t.last_refill <- Engine.Sim.now t.sim;
    kick t
  end

let stop t =
  if t.running then begin
    t.running <- false;
    Engine.Sim.disarm t.timer
  end

let rate_pps t = t.rate_pps
let tokens t = refill t; t.tokens
let sends t = t.sends
let idle t = not (Engine.Sim.timer_armed t.timer)

(* Hybrid fluid/packet fast-forward controller (Engine.Fastforward's
   policy half).

   One controller watches one bottleneck link.  A periodic sampler feeds
   the steady-state detector with per-tick loss rate and queue
   occupancy; when the window is stable and no scheduled transient is
   near, the controller ARMS: every attached flow is frozen at the
   packet level ([Flow.ff_suspend]) and a thaw event is scheduled
   strictly [guard] seconds before the next transient (or at the
   re-check horizon [max_span]).  While armed, the only recurring work
   is the sampler tick itself, which folds fluid-model traffic into the
   flow and link counters at the flows' analytic steady-state rates —
   probes see smooth progress, and the simulator clock hops between
   sparse events instead of per-packet ones.  That hop IS the
   fast-forward: no clock surgery happens anywhere.

   Analytic rates come from each flow's own model ([Flow.ff_rate_pps]:
   AIMD sawtooth average for windowed senders, the TFRC equation for
   TFRC, the configured rate for CBR) and set only the SHARES; the
   measured aggregate delivered rate over the detector window sets the
   TOTAL.  Scaling the shares to the measured total keeps the fluid
   interval consistent with the bandwidth actually available on the
   link, whatever untracked traffic (reverse acks, short transfers)
   is also using it.  Sent = delivered / (1 - p) packets are credited,
   the difference dropped, so loss-ratio probes read the same p across
   the freeze.

   On thaw every flow re-seeds exact packet state for the detected
   steady state ([Flow.ff_resume], the re-seed contract of DESIGN §11)
   and packet-level simulation resumes; the queue refills within about
   one RTT, which is the approximation the digest policy accepts for
   ff-enabled runs. *)

type config = {
  sample_dt : float;
  detector : Engine.Fastforward.Detector.config;
  guard : float;
  min_span : float;
  max_span : float;
  model_tol : float;
}

let default_config =
  {
    sample_dt = 0.25;
    detector = Engine.Fastforward.Detector.default_config;
    guard = 1.0;
    min_span = 3.0;
    max_span = 120.0;
    model_tol = 0.25;
  }

type event = Arm | Thaw

(* One frozen flow.  [scaled] flows traverse the watched link: their
   delivered rate is a share of the measured aggregate and their fluid
   packets are credited to the link.  Unscaled (auxiliary) flows — e.g.
   reverse-path traffic — advance at their own analytic rate and touch
   only their own counters. *)
type slot = {
  ops : Cc.Flow.ff_ops;
  bytes_delivered : unit -> float;
  scaled : bool;
  mutable del_pps : float;  (* delivered rate while armed *)
  mutable drop_pps : float;
  mutable acc_del : float;  (* fractional-packet accumulators *)
  mutable acc_drop : float;
}

type t = {
  sim : Engine.Sim.t;
  link : Netsim.Link.t;
  cfg : config;
  det : Engine.Fastforward.Detector.t;
  slots : slot array;
  transients : float array;  (* sorted ascending *)
  (* per-tick deltas for the loss and rate samples *)
  mutable last_arrivals : int;
  mutable last_drops : int;
  mutable last_bytes : float;
  (* trailing rings of per-tick deltas, [window] long.  Detector samples
     are trailing aggregates over these, not raw per-tick values: a
     0.25 s tick carries only ~100 packets, so a raw per-tick loss rate
     is binomial noise that would keep the band test failing through a
     perfectly steady interval.  Aggregating over the window divides the
     noise by sqrt(window) and makes consecutive samples share most of
     their data, so the band closes quickly in steady state while a
     macro trend still walks the trailing values out of band. *)
  s_arr : int array;
  s_drop : int array;
  s_occ : float array;
  s_rate : float array;
  mutable s_n : int;
  mutable s_head : int;
  (* ring of (time, sum of tracked flows' delivered bytes) snapshots,
     aligned with detector samples, for the measured aggregate rate;
     [ring_s] additionally snapshots each slot's own delivered bytes so
     the model-agreement gate can check flows individually (aggregate
     agreement can hide one young flow's error cancelling another's) *)
  ring_t : float array;
  ring_b : float array;
  ring_s : float array array;  (* (window + 1) x slots *)
  mutable ring_n : int;  (* valid entries, <= window + 1 *)
  mutable ring_head : int;
  (* freeze state *)
  mutable armed : bool;
  mutable p : float;
  mutable armed_at : float;
  mutable thaw_at : float;
  mutable last_mat : float;  (* time fluid credit was last materialized *)
  (* accounting *)
  mutable entries : int;
  mutable exits : int;
  mutable skipped_s : float;
  mutable events : (float * event) list;  (* reverse chronological *)
  metrics : (Engine.Metrics.counter * Engine.Metrics.counter * Engine.Metrics.gauge) option;
}

let tracked_bytes t =
  let sum = ref 0. in
  Array.iter (fun s -> if s.scaled then sum := !sum +. s.bytes_delivered ()) t.slots;
  !sum

let ring_push t time bytes =
  let cap = Array.length t.ring_t in
  let i = (t.ring_head + t.ring_n) mod cap in
  if t.ring_n = cap then t.ring_head <- (t.ring_head + 1) mod cap
  else t.ring_n <- t.ring_n + 1;
  t.ring_t.(i) <- time;
  t.ring_b.(i) <- bytes;
  Array.iteri (fun j s -> t.ring_s.(i).(j) <- s.bytes_delivered ()) t.slots

let ring_reset t = t.ring_n <- 0

(* Push one tick's deltas and return the trailing (loss, occupancy,
   rate) aggregates over the ring. *)
let smooth_push t ~arr ~drop ~occ ~rate =
  let cap = Array.length t.s_arr in
  t.s_arr.(t.s_head) <- arr;
  t.s_drop.(t.s_head) <- drop;
  t.s_occ.(t.s_head) <- occ;
  t.s_rate.(t.s_head) <- rate;
  t.s_head <- (t.s_head + 1) mod cap;
  if t.s_n < cap then t.s_n <- t.s_n + 1;
  let arrs = ref 0 and drops = ref 0 and occs = ref 0. and rates = ref 0. in
  for i = 0 to t.s_n - 1 do
    arrs := !arrs + t.s_arr.(i);
    drops := !drops + t.s_drop.(i);
    occs := !occs +. t.s_occ.(i);
    rates := !rates +. t.s_rate.(i)
  done;
  let n = float_of_int t.s_n in
  let loss =
    if !arrs > 0 then float_of_int !drops /. float_of_int !arrs else 0.
  in
  (loss, !occs /. n, !rates /. n)

let smooth_reset t =
  t.s_n <- 0;
  t.s_head <- 0

(* Measured delivered rate (bytes/s) of the tracked flows across the
   ring; 0 until the ring is full. *)
let measured_bps t =
  let cap = Array.length t.ring_t in
  if t.ring_n < cap then 0.
  else begin
    let oldest = t.ring_head in
    let newest = (t.ring_head + t.ring_n - 1) mod cap in
    let dt = t.ring_t.(newest) -. t.ring_t.(oldest) in
    if dt <= 0. then 0. else (t.ring_b.(newest) -. t.ring_b.(oldest)) /. dt
  end

(* Measured delivered rate (bytes/s) of one slot across the ring. *)
let measured_slot_bps t j =
  let cap = Array.length t.ring_t in
  if t.ring_n < cap then 0.
  else begin
    let oldest = t.ring_head in
    let newest = (t.ring_head + t.ring_n - 1) mod cap in
    let dt = t.ring_t.(newest) -. t.ring_t.(oldest) in
    if dt <= 0. then 0.
    else (t.ring_s.(newest).(j) -. t.ring_s.(oldest).(j)) /. dt
  end

let next_transient t ~after =
  let n = Array.length t.transients in
  let rec find i =
    if i >= n then Float.infinity
    else if t.transients.(i) > after then t.transients.(i)
    else find (i + 1)
  in
  find 0

(* Fold [now - last_mat] seconds of fluid traffic into flow and link
   counters.  Integer packets only; fractional remainders carry over in
   per-slot accumulators so long freezes lose nothing to rounding. *)
let materialize t =
  let now = Engine.Sim.now t.sim in
  let dt = now -. t.last_mat in
  if dt > 0. then begin
    t.last_mat <- now;
    let link_del = ref 0 and link_drop = ref 0 and link_bytes = ref 0 in
    Array.iter
      (fun s ->
        s.acc_del <- s.acc_del +. (s.del_pps *. dt);
        s.acc_drop <- s.acc_drop +. (s.drop_pps *. dt);
        let d = int_of_float s.acc_del in
        let dr = int_of_float s.acc_drop in
        if d > 0 then s.acc_del <- s.acc_del -. float_of_int d;
        if dr > 0 then s.acc_drop <- s.acc_drop -. float_of_int dr;
        if d > 0 || dr > 0 then begin
          s.ops.Cc.Flow.ff_credit ~sent:(d + dr) ~delivered:d;
          if s.scaled then begin
            link_del := !link_del + d;
            link_drop := !link_drop + dr;
            link_bytes := !link_bytes + (d * s.ops.Cc.Flow.ff_pkt_size)
          end
        end)
      t.slots;
    if !link_del > 0 || !link_drop > 0 then
      Netsim.Link.ff_credit t.link ~delivered:!link_del ~dropped:!link_drop
        ~bytes:!link_bytes
  end

let thaw t =
  if t.armed then begin
    materialize t;
    let now = Engine.Sim.now t.sim in
    Array.iter
      (fun s -> s.ops.Cc.Flow.ff_resume ~p:(if s.scaled then t.p else 0.))
      t.slots;
    t.armed <- false;
    t.exits <- t.exits + 1;
    let skipped = now -. t.armed_at in
    t.skipped_s <- t.skipped_s +. skipped;
    (match t.metrics with
    | Some (_, exits, gauge) ->
      Engine.Metrics.incr exits;
      Engine.Metrics.set gauge t.skipped_s
    | None -> ());
    t.events <- (now, Thaw) :: t.events;
    Engine.Fastforward.Detector.reset t.det;
    ring_reset t;
    smooth_reset t;
    (* Re-baseline the per-tick deltas so the first post-thaw sample
       covers only real packet traffic, not the fluid credit. *)
    t.last_arrivals <- Netsim.Link.arrivals t.link;
    t.last_drops <- Netsim.Link.drops t.link;
    t.last_bytes <- tracked_bytes t
  end

let try_arm t =
  let now = Engine.Sim.now t.sim in
  let thaw_time =
    Float.min
      (next_transient t ~after:now -. t.cfg.guard)
      (now +. t.cfg.max_span)
  in
  if thaw_time -. now >= t.cfg.min_span then begin
    let p =
      Float.max 0. (Float.min 0.5 (Engine.Fastforward.Detector.mean_loss t.det))
    in
    let measured = measured_bps t in
    (* Analytic shares; the measured aggregate sets the total. *)
    let total_bps = ref 0. in
    Array.iter
      (fun s ->
        if s.scaled then begin
          s.del_pps <- s.ops.Cc.Flow.ff_rate_pps ~p;
          total_bps :=
            !total_bps +. (s.del_pps *. float_of_int s.ops.Cc.Flow.ff_pkt_size)
        end)
      t.slots;
    (* Model-agreement gate: the detector can only see that the link
       looks flat, not that the flows are in the steady state the
       analytic models describe.  Freezing a young flow (slow-start
       overshoot, droptail sawtooths longer than the window) at an
       unrepresentative rate is where hybrid error comes from, and in
       exactly those states the measured aggregate disagrees with the
       models' prediction at the measured loss rate.  Requiring the
       scale factor to sit near 1 bounds the approximation error by
       construction: we only advance when model ≈ measurement. *)
    let in_band ~tol a b =
      a > 0. && b > 0. && a /. b <= 1. +. tol && b /. a <= 1. +. tol
    in
    let model_ok measured total =
      in_band ~tol:t.cfg.model_tol measured total
      &&
      (* Per-flow agreement (at twice the aggregate tolerance — single
         flows are noisier) for every flow carrying a significant share;
         tiny flows can't move the aggregate and their ratios are mostly
         measurement noise.  Auxiliary flows are held to the same test
         against the p=0 analytic rate they would be frozen at: a
         reverse-path flow still ramping up is exactly as mis-frozen as
         a forward one, and it can't hide behind the aggregate check
         because it never contributes to the watched link. *)
      let ok = ref true in
      Array.iteri
        (fun j s ->
          let a =
            if s.scaled then
              s.del_pps *. float_of_int s.ops.Cc.Flow.ff_pkt_size
            else
              s.ops.Cc.Flow.ff_rate_pps ~p:0.
              *. float_of_int s.ops.Cc.Flow.ff_pkt_size
          in
          let m = measured_slot_bps t j in
          if
            Float.max m a > 0.05 *. measured
            && not (in_band ~tol:(2. *. t.cfg.model_tol) m a)
          then ok := false)
        t.slots;
      !ok
    in
    if model_ok measured !total_bps then begin
      let scale = measured /. !total_bps in
      Array.iter
        (fun s ->
          if s.scaled then begin
            s.del_pps <- s.del_pps *. scale;
            s.drop_pps <-
              (if p > 0. && p < 1. then s.del_pps *. p /. (1. -. p) else 0.)
          end
          else begin
            s.del_pps <- s.ops.Cc.Flow.ff_rate_pps ~p:0.;
            s.drop_pps <- 0.
          end;
          s.acc_del <- 0.;
          s.acc_drop <- 0.;
          s.ops.Cc.Flow.ff_suspend ())
        t.slots;
      t.armed <- true;
      t.p <- p;
      t.armed_at <- now;
      t.thaw_at <- thaw_time;
      t.last_mat <- now;
      t.entries <- t.entries + 1;
      (match t.metrics with
      | Some (entries, _, _) -> Engine.Metrics.incr entries
      | None -> ());
      t.events <- (now, Arm) :: t.events;
      Engine.Sim.at t.sim thaw_time (fun () -> thaw t)
    end
  end

let tick t =
  if t.armed then materialize t
  else begin
    let arrivals = Netsim.Link.arrivals t.link in
    let drops = Netsim.Link.drops t.link in
    let da = arrivals - t.last_arrivals and dd = drops - t.last_drops in
    t.last_arrivals <- arrivals;
    t.last_drops <- drops;
    let occ =
      float_of_int ((Netsim.Link.queue t.link).Netsim.Queue_intf.pkts ())
    in
    let bytes = tracked_bytes t in
    let tick_rate = (bytes -. t.last_bytes) /. t.cfg.sample_dt in
    t.last_bytes <- bytes;
    let loss, occupancy, rate =
      smooth_push t ~arr:da ~drop:dd ~occ ~rate:tick_rate
    in
    Engine.Fastforward.Detector.observe t.det ~loss ~occupancy ~rate;
    ring_push t (Engine.Sim.now t.sim) bytes;
    if Engine.Fastforward.Detector.stable t.det then try_arm t
  end

let create ?(config = default_config) ?metrics ?(aux = []) ~sim ~link
    ~flows ~transients () =
  if config.sample_dt <= 0. then invalid_arg "Fluid.create: sample_dt > 0";
  if config.guard < 0. || config.min_span <= 0. || config.max_span <= 0. then
    invalid_arg "Fluid.create: negative span/guard";
  let slot scaled (f : Cc.Flow.t) =
    match f.Cc.Flow.ff with
    | None -> None
    | Some ops ->
      Some
        {
          ops;
          bytes_delivered = f.Cc.Flow.bytes_delivered;
          scaled;
          del_pps = 0.;
          drop_pps = 0.;
          acc_del = 0.;
          acc_drop = 0.;
        }
  in
  let slots =
    List.filter_map (slot true) flows @ List.filter_map (slot false) aux
  in
  let det = Engine.Fastforward.Detector.create ~config:config.detector () in
  let window = config.detector.Engine.Fastforward.Detector.window in
  let t =
    {
      sim;
      link;
      cfg = config;
      det;
      slots = Array.of_list slots;
      transients =
        (let a = Array.of_list transients in
         Array.sort Float.compare a;
         a);
      last_arrivals = Netsim.Link.arrivals link;
      last_drops = Netsim.Link.drops link;
      last_bytes = 0.;
      ring_t = Array.make (window + 1) 0.;
      ring_b = Array.make (window + 1) 0.;
      ring_s =
        Array.init (window + 1) (fun _ ->
            Array.make (List.length slots) 0.);
      ring_n = 0;
      ring_head = 0;
      s_arr = Array.make window 0;
      s_drop = Array.make window 0;
      s_occ = Array.make window 0.;
      s_rate = Array.make window 0.;
      s_n = 0;
      s_head = 0;
      armed = false;
      p = 0.;
      armed_at = 0.;
      thaw_at = 0.;
      last_mat = 0.;
      entries = 0;
      exits = 0;
      skipped_s = 0.;
      events = [];
      metrics =
        (match metrics with
        | None -> None
        | Some reg ->
          Some
            ( Engine.Metrics.counter reg "ff.entries",
              Engine.Metrics.counter reg "ff.exits",
              Engine.Metrics.gauge reg "ff.skipped_sim_s" ));
    }
  in
  Engine.Sim.every sim ~interval:config.sample_dt (fun () -> tick t);
  t

(* Attach a controller iff the simulator was created with fast-forward
   on; scenario code calls this unconditionally. *)
let maybe_attach ?config ?metrics ?aux ~sim ~link ~flows ~transients () =
  match Engine.Sim.fastforward sim with
  | Engine.Fastforward.Off -> None
  | Engine.Fastforward.On ->
    Some (create ?config ?metrics ?aux ~sim ~link ~flows ~transients ())

let armed t = t.armed
let entries t = t.entries
let exits t = t.exits
let skipped_sim_seconds t = t.skipped_s
let events t = List.rev t.events

(* Many-flow dumbbell harness around [Cc.Flow_soa]: N TCP flows between
   one shared host pair, sized so the per-flow share of the bottleneck is
   far below one packet per RTT — the "weak convergence" ensemble regime
   where fairness is a distributional property.  The same builder exists
   twice, once as one n-slot engine and once as n one-slot engines (how
   the figures build their flows), so the RTO wheel's aggregation can be
   checked digest-identical to per-flow wheels. *)

type params = {
  n : int;
  bandwidth : float;  (** bottleneck bits/s *)
  rtt : float;
  duration : float;
  warmup : float;  (** stats measured over [warmup, duration] *)
  stagger : float;  (** flow i starts at 0.01 + stagger * i / n *)
  queue : Netsim.Dumbbell.queue_kind;
  gamma : float;  (** TCP(1/gamma) increase/decrease rule *)
  seed : int;
}

(* 16 kbit/s of bottleneck per flow: a fair share of two packets per
   second against a minimum window of one packet per 50 ms RTT, so the
   ensemble lives in the timeout/backoff regime the weak-convergence
   model describes. *)
let per_flow_bw = 16_000.

let default_params ~n =
  {
    n;
    bandwidth = per_flow_bw *. float_of_int n;
    rtt = 0.05;
    duration = 10.;
    warmup = 3.;
    stagger = 1.;
    queue = Netsim.Dumbbell.Red;
    gamma = 2.;
    seed = 42;
  }

let config p =
  Cc.Window_cc.default_config
    (Cc.Window_cc.tcp_compatible_aimd ~b:(1. /. p.gamma))

let topology p =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:p.seed in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:p.bandwidth) with
      Netsim.Dumbbell.rtt = p.rtt;
      queue = p.queue;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng:(Engine.Rng.split rng) config in
  let src, dst = Netsim.Dumbbell.add_host_pair db in
  for _ = 1 to p.n do
    ignore (Netsim.Dumbbell.fresh_flow db)
  done;
  (sim, db, src, dst)

(* Deterministic staggered starts as a chain of events (one closure total
   rather than one per flow — at 10⁵ flows, up-front scheduling would
   briefly cost more memory than the flow state itself).  Both engines
   use this helper, so their event patterns match exactly. *)
let start_time p i = 0.01 +. (p.stagger *. float_of_int i /. float_of_int p.n)

let schedule_starts sim p start =
  let k = ref 0 in
  let rec tick () =
    start !k;
    incr k;
    if !k < p.n then Engine.Sim.at sim (start_time p !k) tick
  in
  Engine.Sim.at sim (start_time p 0) tick

type built_soa = {
  sim : Engine.Sim.t;
  db : Netsim.Dumbbell.t;
  eng : Cc.Flow_soa.t;
}

let build_soa p =
  let sim, db, src, dst = topology p in
  let eng = Cc.Flow_soa.create ~sim ~src ~dst ~base:0 ~n:p.n (config p) in
  schedule_starts sim p (fun i -> Cc.Flow_soa.start eng i);
  { sim; db; eng }

let build_object p =
  let sim, db, src, dst = topology p in
  let cfg = config p in
  let flows =
    Array.init p.n (fun i ->
        Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:i ~n:1 cfg) 0)
  in
  schedule_starts sim p (fun i -> flows.(i).Cc.Flow.start ());
  (sim, db, flows)

(* ------------------------------------------------------------------ *)
(* Differential digests: one n-slot engine vs n one-slot engines      *)
(* ------------------------------------------------------------------ *)

(* Per-flow stats and per-link counters, the lines this module's and
   [Fuzz]'s end-state traces share. *)
let end_state_lines ~links flows =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i (f : Cc.Flow.t) ->
      let s = f.Cc.Flow.stats () in
      Printf.bprintf buf
        "flow %d %s sent=%d sbytes=%.17g dbytes=%.17g rtx=%d to=%d frtx=%d \
         srtt=%.17g\n"
        i f.Cc.Flow.protocol s.Cc.Flow.sent_pkts s.Cc.Flow.sent_bytes
        s.Cc.Flow.delivered_bytes s.Cc.Flow.rtx_pkts s.Cc.Flow.timeouts
        s.Cc.Flow.fast_rtx s.Cc.Flow.stat_srtt)
    flows;
  List.iteri
    (fun j l ->
      Printf.bprintf buf "link %d" j;
      List.iter
        (fun (k, v) -> Printf.bprintf buf " %s=%d" k v)
        (Netsim.Link.counters l);
      Buffer.add_char buf '\n')
    links;
  buf

(* Unlike [Fuzz.trace_of], this ends WITHOUT the processed-event count:
   consolidating n flows' timers into one wheel changes how many events
   exist without changing what any of them computes, so only flow stats,
   link counters and the final clock are compared. *)
let end_state_trace ~sim ~links flows =
  let buf = end_state_lines ~links flows in
  Printf.bprintf buf "now=%.17g\n" (Engine.Sim.now sim);
  Buffer.contents buf

let digest_soa p =
  let b = build_soa p in
  Engine.Sim.run ~until:p.duration b.sim;
  let flows = Array.init p.n (fun i -> Cc.Flow_soa.flow b.eng i) in
  Digest.to_hex
    (Digest.string
       (end_state_trace ~sim:b.sim ~links:(Netsim.Dumbbell.links b.db) flows))

let digest_object p =
  let sim, db, flows = build_object p in
  Engine.Sim.run ~until:p.duration sim;
  Digest.to_hex
    (Digest.string (end_state_trace ~sim ~links:(Netsim.Dumbbell.links db) flows))

(* [None] when the n-slot engine reproduces n one-slot engines
   byte-for-byte, [Some msg] otherwise. *)
let check_equiv p =
  let soa = digest_soa p in
  let obj = digest_object p in
  if String.equal soa obj then None
  else
    Some
      (Printf.sprintf
         "SoA/object divergence (n=%d bw=%g rtt=%g dur=%g seed=%d): soa=%s \
          object=%s"
         p.n p.bandwidth p.rtt p.duration p.seed soa obj)

(* Randomized small instance for the fuzzer's SoA leg. *)
let fuzz_params ~quick seed =
  let rng = Engine.Rng.create ~seed:(seed lxor 0x50a50a) in
  let n = 2 + Engine.Rng.int rng 7 in
  let queue =
    match Engine.Rng.int rng 3 with
    | 0 -> Netsim.Dumbbell.Red
    | 1 -> Netsim.Dumbbell.Red_ecn
    | _ -> Netsim.Dumbbell.Droptail
  in
  let gamma = [| 2.; 4.; 8. |].(Engine.Rng.int rng 3) in
  let bandwidth = 0.5e6 *. float_of_int (1 + Engine.Rng.int rng 8) in
  let rtt = 0.02 +. (0.02 *. float_of_int (Engine.Rng.int rng 5)) in
  let duration =
    if quick then 1.5 +. float_of_int (Engine.Rng.int rng 2)
    else 2. +. float_of_int (Engine.Rng.int rng 4)
  in
  {
    n;
    bandwidth;
    rtt;
    duration;
    warmup = 0.;
    (* Dyadic staggers make start times and RTO deadlines collide at
       exact float timestamps with serialization-grid events — the
       hardest case for the wheel's explicit-seq ordering, so the
       fuzzer leans into it rather than avoiding it. *)
    stagger = 0.25 *. float_of_int (1 + Engine.Rng.int rng 8);
    queue;
    gamma;
    seed;
  }

let fuzz_check ?(quick = false) seed = check_equiv (fuzz_params ~quick seed)

(* ------------------------------------------------------------------ *)
(* Weak-convergence experiment: one run per N                          *)
(* ------------------------------------------------------------------ *)

(* Normalized-throughput histogram buckets: [0, 0.25), ..., [1.75, 2),
   [2, inf) in units of the fair share. *)
let hist_buckets = 9

let bucket_label k =
  if k = hist_buckets - 1 then ">=2.00"
  else Printf.sprintf "%.2f-%.2f" (0.25 *. float_of_int k)
      (0.25 *. float_of_int (k + 1))

type result = {
  rn : int;
  events : int;
  mean_norm : float;  (** mean normalized (fair-share = 1) throughput *)
  cov : float;
  cov_sampled : float;  (** reservoir estimate, O(reservoir) not O(n) *)
  jain : float;
  p10 : float;
  p50 : float;
  p90 : float;
  utilization : float;
  drop_rate : float;
  hist : float array;  (** fraction of flows per normalized bucket *)
}

let reservoir_k = 256

let run p =
  let b = build_soa p in
  Engine.Sim.run ~until:p.warmup b.sim;
  let before = Array.init p.n (fun i -> Cc.Flow_soa.delivered_pkts b.eng i) in
  Engine.Sim.run ~until:p.duration b.sim;
  let window = p.duration -. p.warmup in
  let fair_bps = p.bandwidth /. float_of_int p.n in
  let pkt_bits = 8000. in
  let norm i =
    float_of_int (Cc.Flow_soa.delivered_pkts b.eng i - before.(i))
    *. pkt_bits /. window /. fair_bps
  in
  (* Exhaustive stats: one O(n) pass at end of run. *)
  let stats = Engine.Stats.create () in
  let hist = Array.make hist_buckets 0 in
  let values = ref [] in
  for i = p.n - 1 downto 0 do
    let x = norm i in
    Engine.Stats.add stats x;
    let k = min (hist_buckets - 1) (int_of_float (x /. 0.25)) in
    hist.(k) <- hist.(k) + 1;
    values := x :: !values
  done;
  let values = !values in
  (* Sampled stats: a deterministic reservoir of flow indexes feeding a
     second accumulator, O(reservoir) instead of O(flows). *)
  let sampled = Engine.Stats.create () in
  let sample =
    Engine.Reservoir.indices
      ~rng:(Engine.Rng.create ~seed:(p.seed + 1))
      ~k:(min reservoir_k p.n) p.n
  in
  Array.iter (fun i -> Engine.Stats.add sampled (norm i)) sample;
  let bottleneck = Netsim.Dumbbell.bottleneck b.db in
  {
    rn = p.n;
    events = Engine.Sim.events_processed b.sim;
    mean_norm = Engine.Stats.mean stats;
    cov = Engine.Stats.cov stats;
    cov_sampled = Engine.Stats.cov sampled;
    jain = Engine.Stats.jain_index values;
    p10 = Engine.Stats.percentile 0.1 values;
    p50 = Engine.Stats.percentile 0.5 values;
    p90 = Engine.Stats.percentile 0.9 values;
    utilization = Netsim.Link.utilization bottleneck ~elapsed:p.duration;
    drop_rate =
      (let a = Netsim.Link.arrivals bottleneck in
       if a = 0 then 0.
       else float_of_int (Netsim.Link.drops bottleneck) /. float_of_int a);
    hist =
      Array.map (fun c -> float_of_int c /. float_of_int p.n) hist;
  }

let ns ~quick =
  if quick then [ 100; 1_000; 10_000 ] else [ 100; 1_000; 10_000; 100_000 ]

let experiment_params ~quick n =
  let p = default_params ~n in
  if quick then { p with duration = 8.; warmup = 3. }
  else { p with duration = 30.; warmup = 5. }

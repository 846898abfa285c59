(** Many-flow dumbbell harness over {!Cc.Flow_soa}: weak-convergence
    throughput/fairness distributions for N ∈ 10²..10⁵ flows, plus the
    differential check that one n-slot engine is byte-identical to n
    one-slot engines (how the figures build their flows) at equal
    inputs.  That checks the RTO wheel's aggregation of many flows'
    timers, the one part of the engine a single flow does not
    exercise. *)

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

(** 16 kbit/s of bottleneck per flow (sub-packet fair share per RTT):
    RED queue, 50 ms RTT, gamma = 2. *)
val default_params : n:int -> params

(** Experiment sweep sizes: quick [100;1k;10k], full adds 100k. *)
val ns : quick:bool -> int list

(** [default_params] with the experiment's duration/warmup for the
    given mode (quick: 8 s / 3 s; full: 30 s / 5 s). *)
val experiment_params : quick:bool -> int -> params

type built_soa = {
  sim : Engine.Sim.t;
  db : Netsim.Dumbbell.t;
  eng : Cc.Flow_soa.t;
}

(** Build (not run) one n-slot engine with starts scheduled. *)
val build_soa : params -> built_soa

(** {2 Differential: n-slot vs one-slot engines} *)

(** One line per flow (transport stats, floats at [%.17g]) and one per
    link (its counters), in order: the body {!end_state_trace} and the
    fuzzer's trace share.  Each appends its own last line. *)
val end_state_lines : links:Netsim.Link.t list -> Cc.Flow.t array -> Buffer.t

(** {!end_state_lines} and the final clock, without the event count (the
    digest input); exposed so tests can diff divergences field by
    field. *)
val end_state_trace :
  sim:Engine.Sim.t -> links:Netsim.Link.t list -> Cc.Flow.t array -> string

(** Uid-free, event-count-free end-state digest of a full run. *)
val digest_soa : params -> string

val digest_object : params -> string

(** [None] when both builds end byte-identical, [Some msg] otherwise. *)
val check_equiv : params -> string option

(** [check_equiv] on a randomized small instance derived from [seed]; the
    fuzzer's SoA leg. *)
val fuzz_check : ?quick:bool -> int -> string option

(** {2 Weak-convergence experiment} *)

type result = {
  rn : int;
  events : int;  (** events processed by the whole run *)
  mean_norm : float;  (** mean normalized (fair-share = 1) throughput *)
  cov : float;  (** coefficient of variation across all flows *)
  cov_sampled : float;  (** reservoir estimate of [cov] *)
  jain : float;
  p10 : float;
  p50 : float;
  p90 : float;
  utilization : float;
  drop_rate : float;
  hist : float array;  (** fraction of flows per normalized bucket *)
}

val hist_buckets : int
val bucket_label : int -> string

(** Run one N: build, warm up, measure delivered throughput per flow over
    the measurement window, reduce to distributional stats. *)
val run : params -> result

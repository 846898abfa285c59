(** Self-clocked window-based congestion control.

    One sender implementation covers the paper's whole windowed family via a
    pluggable increase/decrease {!rule}:

    - TCP(b)   — AIMD with a = 4(2b - b^2)/3 (the paper's compatibility rule)
    - SQRT / IIAD — binomial algorithms (Bansal & Balakrishnan)

    Mechanisms included, per the paper's definition of TCP(b): slow-start,
    duplicate-ack fast retransmit with NewReno-style partial-ack recovery,
    retransmit timeouts with exponential backoff, Karn's algorithm for RTT
    sampling, and strict self-clocking (data leaves only on ack arrival or
    timer expiry — the packet-conservation principle of Section 4.1).  An
    ECN echo applies the loss-event decrease, at most once per window;
    the sink acks every packet. *)

type rule = {
  name : string;
  increase : float -> float;  (** window -> additive per-RTT increment *)
  decrease : float -> float;  (** window -> new window after a loss event *)
}

(** Plain AIMD: increase a/RTT, multiply by (1-b) on loss. *)
val aimd : a:float -> b:float -> rule

(** TCP-compatible AIMD(b): a = 4(2b - b^2)/3 (Section 2). *)
val tcp_compatible_aimd : b:float -> rule

(** Binomial: increase a / w^k per RTT, decrease w - b w^l on loss. *)
val binomial : k:float -> l:float -> a:float -> b:float -> rule

type config = {
  rule : rule;
  sack : bool;
      (** selective acknowledgments: a scoreboard drives loss recovery
          (simplified RFC 3517); recovers multi-loss windows without
          timeouts *)
  pkt_size : int;  (** data bytes per packet *)
  initial_window : float;
  initial_ssthresh : float option;
      (** [Some s] starts in congestion avoidance once the window reaches
          [s]; [None] (default) slow-starts until the first loss *)
  max_window : float;
  min_rto : float;  (** seconds; ns-2-era default 0.2 *)
  total_pkts : int option;  (** [Some n] for a short transfer of n packets *)
  on_complete : (unit -> unit) option;
}

val default_config : rule -> config

type t

(** Build sender on [src] and its acking sink on [dst]; the flow does not
    transmit until [Flow.start]. *)
val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  config ->
  t

val flow : t -> Flow.t

(** {2 Fluid fast-forward}

    Exposed so the hybrid engine's controller (and tests) can drive a
    sender directly; [flow] publishes the same hooks as {!Flow.ff_ops}
    for long-lived flows. *)

(** Steady-state sawtooth of [rule] at loss-event rate [p]: one loss
    event per [1/p] packets, per-RTT growth of [increase w].  Returns
    [(average packets per RTT, peak window)], or [None] for [p <= 0] or
    [p >= 1].  AIMD(1, 1/2) reproduces [sqrt(3/(2p))]. *)
val sawtooth_model :
  rule:rule -> max_window:float -> p:float -> (float * float) option

(** Freeze the sender (idempotent; no-op unless running). *)
val ff_suspend : t -> unit

(** Fold fluid-model packets into counters while suspended. *)
val ff_credit : t -> sent:int -> delivered:int -> unit

(** Analytic sawtooth rate at loss rate [p] over the measured RTT,
    packets/s; 0 until an RTT sample exists. *)
val ff_rate_pps : t -> p:float -> float

(** Re-seed exact packet state for steady state at loss rate [p] and
    resume (see the re-seed contract in DESIGN §11). *)
val ff_resume : t -> p:float -> unit

(** Introspection for tests and instrumentation. *)
val cwnd : t -> float

(** Current retransmit timeout as the RTO timer would arm it: backoff
    applied to [srtt + 4*rttvar] (1 s before the first valid sample),
    floored at [cfg.min_rto] and capped at 64 s. *)
val rto : t -> float

val ssthresh : t -> float
val srtt : t -> float
val timeouts : t -> int
val fast_retransmits : t -> int
val retransmitted_pkts : t -> int
val inflight : t -> int
val finished : t -> bool

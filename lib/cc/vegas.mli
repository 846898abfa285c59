(** Vegas-style delay-based sender.

    Estimates the standing queue it keeps at the bottleneck as
    [diff = cwnd * (rtt - base_rtt) / rtt] and, once per RTT, adjusts the
    window to hold [alpha < diff < beta] (+1 packet below [alpha], −1
    above [beta]).  Slow start doubles every other RTT and exits as soon
    as [diff > gamma] with gamma = 1 packet; the window starts at 2.

    Robustness fixes from the delay-CC literature: per-RTT decisions use
    the minimum RTT sample of the epoch (noise filtering), and the
    propagation-RTT estimate is a windowed minimum aged over 10 s (two
    rotating half-window buckets), so it recovers from route changes and
    persistent standing queues.  RTT samples obey Karn's rule, and the
    retransmit timer is floored at 0.2 s.  Loss recovery is 3-dupack
    retransmit with a 3/4 decrease and go-back-N on timeout. *)

type config = { alpha : float; beta : float; pkt_size : int }

val default_config : config
(** alpha 2, beta 4 (packets of standing queue), 1000-byte packets. *)

type t

val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  config ->
  t
(** Attach a sender at [src] and its cumulative-ack sink at [dst].
    Raises [Invalid_argument] unless [0 <= alpha <= beta]. *)

val start : t -> unit
val stop : t -> unit

val flow : t -> Flow.t
(** Uniform flow handle ([ff = None]: delay-based senders have no fluid
    fast-forward model yet). *)

(** {2 Introspection (tests, experiments)} *)

val cwnd : t -> float
val srtt : t -> float

val rto : t -> float
(** Current retransmit timeout, including backoff; never below
    0.2 s. *)

val in_slow_start : t -> bool

val standing_queue : t -> float
(** Most recent per-epoch [diff] estimate, in packets. *)

val base_rtt_estimate : t -> float
(** Current aged base-RTT estimate (0 until the first sample). *)

val timeouts : t -> int
val fast_retransmits : t -> int

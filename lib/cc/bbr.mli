(** BBR-style model-based sender.

    Keeps an explicit path model — bottleneck bandwidth as a windowed
    maximum of delivery-rate samples, propagation RTT as a windowed
    minimum of RTT samples — and paces packets through {!Pacing} at
    [pacing_gain * btl_bw], with an inflight cap of
    [cwnd_gain * btl_bw * rtprop].  Runs the classic
    STARTUP/DRAIN/PROBE_BW/PROBE_RTT machine: exponential startup until
    the delivery rate plateaus, a drain phase, an 8-phase
    probe/drain/cruise gain cycle, and periodic window collapses to
    re-measure the propagation delay.  The PROBE_BW cycle starts at a
    fixed phase so runs are deterministic.

    Loss does not alter the model (BBR v1): recovery is 3-dupack
    retransmit plus go-back-N on a [min_rto]-floored, backed-off timeout,
    with the bandwidth/RTT filters preserved across both.

    The model constants are fixed: initial cwnd 4, 100 ms initial-RTT
    guess (seeds the pacing rate before any sample), min_rto 0.2 s,
    10-round bandwidth filter, 10 s rtprop window, 200 ms PROBE_RTT,
    pipe full after 3 flat rounds. *)

type t

val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  pkt_size:int ->
  t
(** Attach a sender of [pkt_size]-byte packets at [src] (with its own
    pacer) and a cumulative-ack sink at [dst]. *)

val start : t -> unit
val stop : t -> unit

val flow : t -> Flow.t
(** Uniform flow handle ([ff = None]: rate-paced senders have no fluid
    fast-forward model yet). *)

(** {2 Introspection (tests, experiments)} *)

val mode : t -> string
(** Current mode name: ["STARTUP"], ["DRAIN"], ["PROBE_BW"] or
    ["PROBE_RTT"]. *)

val btl_bw_pps : t -> float
(** Bottleneck-bandwidth estimate in packets per second (0 until the
    first delivery-rate sample). *)

val rtprop : t -> float
(** Propagation-RTT estimate in seconds (0 until the first sample). *)

val rto : t -> float
(** Current retransmit timeout, including backoff; never below
    0.2 s. *)

val pacing_rate : t -> float
(** Current pacing rate in packets per second. *)

val timeouts : t -> int
val fast_retransmits : t -> int

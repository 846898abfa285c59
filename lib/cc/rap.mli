(** Rate Adaptation Protocol (Rejaie et al.) — rate-based AIMD.

    RAP(1/gamma) is the paper's example of AIMD *without* self-clocking:
    the sender transmits on a rate timer (inter-packet gap = srtt / w),
    regardless of ack arrivals.  The receiver acks every packet; the sender
    infers losses from ack sequence holes (3-packet reordering rule) and
    applies at most one multiplicative decrease per RTT.  Lost packets are
    never retransmitted (RAP targets real-time streams).  Its rate is
    capped at 10^6 packets/s.

    The send timer, counters and RTT estimate (0.2 s until the first
    sample, then smoothed with gain 1/8) are the {!Rate_flow} core's;
    this module keeps the window law, the per-seq send times, loss
    detection and the per-packet acker. *)

type config = {
  a : float;  (** additive increase, packets per RTT *)
  b : float;  (** multiplicative decrease factor *)
  pkt_size : int;
}

(** TCP-compatible RAP with decrease factor [b]: a = 4(2b - b^2)/3. *)
val tcp_compatible_config : b:float -> config

type t

val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  config ->
  t

val flow : t -> Flow.t

(** Current rate expressed in packets per RTT. *)
val window : t -> float

val loss_events : t -> int

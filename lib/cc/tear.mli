(** TCP Emulation At Receivers (Rhee, Ozdemir, Yi 2000) — extension.

    The *receiver* runs TCP's window computation (slow-start, congestion
    avoidance, one halving per congestion round, timeout emulation when
    losses persist), driven by data arrivals instead of acks.  Instead of
    transmitting with that window, it smooths the per-round windows with a
    weighted moving average and reports [avg_cwnd / rtt] to the sender,
    which simply transmits at the reported rate.  The result is
    TCP-compatible long-term behavior with a much smoother sending rate
    and feedback only once per round — the property that makes TEAR
    attractive for multicast.

    Simplifications vs the TEAR report, documented in DESIGN.md: round
    boundaries are counted in arrivals of one emulated window; the RTT the
    receiver divides by is the sender's smoothed estimate echoed in data
    packets, through the same {!Rate_flow} timestamp echo as TFRC.  The
    send timer and counters are the core's too; this module keeps the
    emulated window, its watchdog and the sender's rate. *)

type config = {
  pkt_size : int;
  smoothing_rounds : int;  (** windows averaged; TEAR uses about 8 *)
}

(** 1000-byte packets, 8 rounds.  The sender starts at 2 packets/s and
    never sends slower than one packet per 64 s. *)
val default_config : config

type t

val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  config ->
  t

val flow : t -> Flow.t

(** Introspection. *)
val rate_pps : t -> float

val emulated_cwnd : t -> float
val srtt : t -> float

(** Rules and settings of the self-clocked window sender.

    One sender covers the paper's whole windowed family via a pluggable
    increase/decrease {!rule}:

    - TCP(b)   — AIMD with a = 4(2b - b^2)/3 (the paper's compatibility rule)
    - SQRT / IIAD — binomial algorithms (Bansal & Balakrishnan)

    The sender itself is {!Flow_soa}: a per-flow TCP/SQRT/IIAD flow is a
    one-slot engine, built with [Flow_soa.create ~n:1].  Mechanisms, per
    the paper's definition of TCP(b): slow-start, duplicate-ack fast
    retransmit with NewReno-style partial-ack recovery (or SACK
    recovery), retransmit timeouts with exponential backoff, Karn's
    algorithm for RTT sampling, and strict self-clocking (data leaves
    only on ack arrival or timer expiry — the packet-conservation
    principle of Section 4.1).  An ECN echo applies the loss-event
    decrease, at most once per window; the sink acks every packet. *)

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
  on_complete : (int -> unit) option;
      (** called with the flow id once its bounded transfer is fully
          acked *)
}

val default_config : rule -> config

(** TCP-Friendly Rate Control (Floyd, Handley, Padhye, Widmer 2000).

    Equation-based, rate-driven congestion control: the receiver measures
    the loss event rate over the most recent [k] loss intervals (TFRC(k),
    deployed default about 6) and its receive rate each RTT; the sender
    sets its transmission rate to the TCP response function of that loss
    rate, capped at twice the receive rate.

    The [conservative] flag implements the paper's self-clocking extension
    (Section 4.1.1 pseudo-code): for the RTT after a reported loss the rate
    is capped at the receive rate itself, and otherwise at C times the
    receive rate (C = 1.1), restoring the packet-conservation principle.

    As in the paper's runs, the loss-interval average has no RFC 3448
    history discounting.  The sender starts at 2 packets/s, assumes a
    200 ms RTT until the first sample, and never sends slower than one
    packet per 64 s (t_mbi). *)

type config = {
  k : int;  (** number of loss intervals averaged *)
  pkt_size : int;
  conservative : bool;  (** the paper's self-clocking option *)
  conservative_c : float;  (** C in the pseudo-code; paper uses 1.1 *)
}

val default_config : k:int -> config

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

val srtt : t -> float

(** Last loss event rate reported by the receiver. *)
val loss_event_rate : t -> float

val in_slow_start : t -> bool

(** The receiver's fallback receive-rate estimate when no per-packet
    measurement is available: [bytes /. elapsed], except that a feedback
    interval of exactly zero (a feedback timer firing at a packet-arrival
    instant, reproducible with dyadic timestamps) keeps [prev] rather
    than producing inf/nan.  Exposed pure so the guard stays pinned by a
    regression test. *)
val nofb_recv_rate : bytes:int -> elapsed:float -> prev:float -> float

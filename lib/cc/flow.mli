(** Uniform handle over a running transport flow, regardless of protocol.

    Scenario code starts/stops flows and reads counters through this record.
    Three modules build one: {!Flow_soa} for the window senders,
    {!Rate_flow} for the rate-timer senders ({!Rap}, {!Tfrc}, {!Tear},
    {!Cbr}), and {!Bbr} and {!Vegas} for themselves. *)

(** Uniform per-flow statistics record every transport exports for the
    observability layer.  Transports without a loss-recovery machinery
    (rate-based and open-loop senders) report zero for [rtx_pkts],
    [timeouts] and [fast_rtx]. *)
type stats = {
  sent_pkts : int;
  sent_bytes : float;
  delivered_bytes : float;
  rtx_pkts : int;  (** retransmitted data packets *)
  timeouts : int;  (** retransmission-timer expiries *)
  fast_rtx : int;  (** fast-retransmit episodes *)
  stat_srtt : float;  (** smoothed RTT estimate at sampling time, seconds *)
}

type t = {
  id : int;  (** flow identifier, unique per topology *)
  protocol : string;  (** human-readable, e.g. "tcp(1/8)" *)
  start : unit -> unit;
  stop : unit -> unit;
  pkts_sent : unit -> int;
  bytes_sent : unit -> float;
  bytes_delivered : unit -> float;  (** received at the sink *)
  srtt : unit -> float;  (** smoothed RTT estimate, seconds *)
  stats : unit -> stats;  (** full statistics snapshot *)
}

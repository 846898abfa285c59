(** Uniform handle over a running transport flow, regardless of protocol.

    Scenario code starts/stops flows and reads counters through this record;
    each agent module ({!Flow_soa}, {!Rap}, {!Tfrc}, {!Tear}, {!Cbr},
    {!Bbr}, {!Vegas}) builds one. *)

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

(** Build a [stats] thunk from the four basic closures, with the
    loss-recovery counters pinned to zero — for transports that have no
    retransmission machinery. *)
val basic_stats :
  pkts_sent:(unit -> int) ->
  bytes_sent:(unit -> float) ->
  bytes_delivered:(unit -> float) ->
  srtt:(unit -> float) ->
  unit ->
  stats

(** Serialize a snapshot for manifests and benchmark reports. *)
val json_of_stats : stats -> Engine.Json.t

(** Mean goodput in bytes/s between two absolute times, from a closure
    sampling [bytes_delivered] — convenience for scenarios. *)
val throughput : t -> t0:float -> t1:float -> snapshot0:float -> float

(** Constant-bit-rate source (no congestion control), on the
    {!Rate_flow} core: one packet every [pkt_size * 8 / rate] seconds.

    Used as the orchestrated competing traffic in the paper's dynamic
    scenarios; [Scenarios] drives its [start], [stop] and {!set_rate} to
    build square waves and restarts.  It samples no RTT, so its flow
    reports [srtt = 0]. *)

type t

(** The destination counts delivered bytes but sends no acks. *)
val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  rate:float (** bits/s *) ->
  pkt_size:int ->
  t

val flow : t -> Flow.t
val set_rate : t -> float -> unit
val rate : t -> float

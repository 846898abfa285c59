(** Constant-bit-rate source (no congestion control).

    Used as the orchestrated competing traffic in the paper's dynamic
    scenarios; pair with {!Onoff} to build square waves and sawtooths. *)

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

(** Flash crowd of short TCP transfers (Section 4.1.2).

    During [\[start, start + duration)], new short TCP flows (one-slot
    {!Flow_soa} engines) of [transfer_pkts] packets each arrive at
    [arrival_rate] flows per second (Poisson arrivals).  Flows are spread round-robin over a pool of host
    pairs so node fan-in stays realistic. *)

type config = {
  arrival_rate : float;  (** flows per second; paper uses 200 *)
  duration : float;  (** seconds; paper uses 5 *)
  transfer_pkts : int;  (** packets per flow; paper uses 10 *)
  pkt_size : int;
  pool_size : int;  (** host pairs to spread flows over *)
}

val default_config : config

type t

(** [create ~sim ~rng ~dumbbell ~start config] schedules the crowd. *)
val create :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  dumbbell:Netsim.Dumbbell.t ->
  start:float ->
  config ->
  t

val flows_started : t -> int
val flows_completed : t -> int

(** Aggregate bytes delivered to all crowd sinks. *)
val bytes_delivered : t -> float

(** Mean completion time of finished flows, seconds. *)
val mean_completion_time : t -> float

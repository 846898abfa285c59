(** The paper's dynamic test scenarios (Section 3), one builder per family.

    All scenarios run on a RED dumbbell with a 50 ms round-trip time,
    queue capacity 2.5 x BDP and RED thresholds 0.25/1.25 x BDP, with a
    little TCP traffic flowing in the reverse direction so acks share a
    loaded path, as in the paper.  Loss rates are averaged over 10-RTT
    bins.  Every scenario is deterministic given its [seed]. *)

type env = {
  sim : Engine.Sim.t;
  rng : Engine.Rng.t;
  db : Netsim.Dumbbell.t;
}

val make_env :
  ?seed:int ->
  ?rtt:float ->
  ?queue:Netsim.Dumbbell.queue_kind ->
  bandwidth:float ->
  unit ->
  env

(** {1 Sudden congestion: CBR restart (Figures 3-5)} *)

type cbr_restart_result = {
  loss_series : Engine.Timeseries.t;  (** 10-RTT binned loss fraction *)
  steady_loss : float;  (** average over the initial CBR-on period *)
  stab : Metrics.stabilization option;  (** measured from the restart *)
  rtt : float;
}

(** Twenty long-lived flows of [protocol]; a CBR source using half the
    bottleneck is on during [(0, 150)], idle during [(150, 180)], and
    restarts at t = 180 s. *)
val cbr_restart :
  ?seed:int ->
  ?queue:Netsim.Dumbbell.queue_kind ->
  ?n_flows:int ->
  ?duration:float ->
  protocol:Protocol.t ->
  bandwidth:float ->
  unit ->
  cbr_restart_result

(** {1 Flash crowd (Figure 6)} *)

type flash_crowd_result = {
  bg_rate : Engine.Timeseries.t;  (** aggregate background bytes/s, 0.5 s bins *)
  crowd_rate : Engine.Timeseries.t;  (** aggregate crowd bytes/s *)
  crowd_started : int;
  crowd_completed : int;
  mean_completion : float;
}

(** Ten long-lived background flows of [protocol] face a crowd of
    10-packet TCP transfers arriving at 200 flows/s for 5 s starting at
    t = 25 s. *)
val flash_crowd :
  ?seed:int ->
  ?duration:float ->
  protocol:Protocol.t ->
  bandwidth:float ->
  unit ->
  flash_crowd_result

(** {1 Oscillating bandwidth (Figures 7-9, 14-16)} *)

type wave_shape = Square | Sawtooth | Reverse_sawtooth

type square_wave_result = {
  per_flow : (string * float) list;  (** protocol name, normalized thr *)
  group_mean : string -> float;  (** mean normalized thr of a protocol *)
  utilization : float;  (** aggregate thr / average available bandwidth *)
  drop_rate : float;  (** bottleneck drops / arrivals over measurement *)
}

(** [flows] gives protocol groups and counts, e.g. 5 TCP + 5 TFRC.  An
    ON/OFF CBR with peak rate [cbr_fraction x bandwidth] and equal ON and
    OFF times of [period / 2] modulates the available bandwidth; per-flow
    throughput is normalized by the fair share of the average available
    bandwidth.
    @raise Invalid_argument unless [0 < cbr_fraction < 1] and [period] is
    finite and positive. *)
val square_wave :
  ?seed:int ->
  ?shape:wave_shape ->
  ?measure:float ->
  flows:(Protocol.t * int) list ->
  bandwidth:float ->
  cbr_fraction:float ->
  period:float ->
  unit ->
  square_wave_result

(** {1 Transient fairness (Figures 10, 12)} *)

(** Two flows of [protocol]: the first owns the link, the second starts at
    a running point; returns the delta-fair convergence time in seconds
    averaged over [n_trials] seeds, and the number of trials that
    converged within the cap.  Trials are independent, seeded jobs; when
    [pool] is given they run on its worker domains (results are identical
    either way). *)
val fair_convergence :
  ?seed:int ->
  ?pool:Engine.Pool.t ->
  ?n_trials:int ->
  ?cap:float ->
  ?delta:float ->
  protocol:Protocol.t ->
  bandwidth:float ->
  unit ->
  float * int

(** {1 Sudden bandwidth increase (Figure 13)} *)

type fk_result = { f20 : float; f200 : float }

(** Ten flows of [protocol] share the link; at a steady point five stop,
    doubling the bandwidth available to the rest; f(k) is the link
    utilization over the first k RTTs after the change. *)
val bandwidth_double :
  ?seed:int ->
  ?t_stop:float ->
  protocol:Protocol.t ->
  bandwidth:float ->
  unit ->
  fk_result

(** {1 Designed loss patterns (Figures 17-19)} *)

type pattern =
  | Counts of int list  (** drop one packet after each count, cycling *)
  | Phases of (float * int) list  (** (duration, drop every n-th), cycling *)

type loss_pattern_result = {
  rate_02s : Engine.Timeseries.t;  (** sending rate, 0.2 s bins (bytes/s) *)
  rate_1s : Engine.Timeseries.t;  (** sending rate, 1 s bins *)
  avg_throughput : float;  (** bytes/s over the measurement window *)
  smoothness : float;  (** max consecutive-bin ratio on the 0.2 s series *)
}

(** One flow of [protocol] subjected to a deterministic loss pattern on an
    otherwise uncongested path. *)
val loss_pattern :
  ?seed:int ->
  ?duration:float ->
  protocol:Protocol.t ->
  pattern:pattern ->
  bandwidth:float ->
  unit ->
  loss_pattern_result

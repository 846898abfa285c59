(** The paper's evaluation metrics (Section 3). *)

type stabilization = {
  time_seconds : float;  (** from the congestion onset *)
  time_rtts : float;
  cost : float;
      (** stabilization time (RTTs) x average loss fraction during the
          stabilization interval; 1 = one full RTT of packets dropped *)
  avg_loss : float;  (** average loss fraction during the interval *)
  steady_loss : float;  (** the reference steady-state loss fraction *)
}

(** [stabilization ~loss_series ~t_event ~steady_loss ~rtt] measures how
    long after [t_event] the loss rate stays above 1.5 x [steady_loss].
    [loss_series] holds per-bin loss fractions (bins of about 10 RTTs, as
    in the paper).  Returns [None] when the loss rate never exceeded the
    threshold after [t_event]. *)
val stabilization :
  loss_series:Engine.Timeseries.t ->
  t_event:float ->
  steady_loss:float ->
  rtt:float ->
  stabilization option

(** [fair_convergence ~rate1 ~rate2 ~t_start ~delta] is the paper's
    delta-fair convergence time: the first time at/after [t_start] when the
    allocation [(x1, x2)] satisfies [min x / (x1 + x2) >= (1 - delta)/2],
    i.e. lies within the delta-fair band.  [rate1]/[rate2] are throughput
    time series on a common sampling grid.  [None] if never reached. *)
val fair_convergence :
  rate1:Engine.Timeseries.t ->
  rate2:Engine.Timeseries.t ->
  t_start:float ->
  delta:float ->
  float option

(** [f_k ~delivered_bytes ~t_event ~k ~rtt ~bandwidth] is Section 4.2.3's
    utilization metric: the fraction of the link capacity used during the
    first [k] RTTs after [t_event].  [delivered_bytes] is a cumulative
    counter closure sampled now and scheduled at [t_event + k rtt] — here
    we take the two snapshots as arguments instead. *)
val f_k :
  bytes_at_event:float ->
  bytes_after:float ->
  k:int ->
  rtt:float ->
  bandwidth:float ->
  float

(** Largest ratio between consecutive bins of a sending-rate series — the
    paper's smoothness metric when the bin is one RTT.  Bins where either
    value is below [floor] bytes/s are skipped. *)
val smoothness : ?floor:float -> Engine.Timeseries.t -> float

(** Mean of a series between two times; 0 when empty. *)
val mean_between : Engine.Timeseries.t -> lo:float -> hi:float -> float

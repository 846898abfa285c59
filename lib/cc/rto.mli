(** Retransmission-timeout arithmetic shared by the window senders
    ({!Window_cc}, {!Flow_soa}, {!Bbr}, {!Vegas}).

    One definition keeps every sender on the same float operations in
    the same order, so a change here moves all of their digests
    together or none of them. *)

(** [timeout ~min_rto ~backoff ~rtt_valid ~srtt ~rttvar] is
    [min 64 (max min_rto base *. backoff)], where [base] is
    [srtt +. 4 *. rttvar] once an RTT sample exists and 1 s before.
    The floor applies {e before} the backoff multiplies in: a low-RTT
    path must never collapse the timer below [min_rto].  The 64 s cap
    matches the 64x cap of {!double_backoff}. *)
val timeout :
  min_rto:float ->
  backoff:float ->
  rtt_valid:bool ->
  srtt:float ->
  rttvar:float ->
  float

(** Exponential backoff after a timeout: doubles, capped at 64. *)
val double_backoff : float -> float

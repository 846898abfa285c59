let[@inline] formula ~min_rto ~backoff ~rtt_valid ~srtt ~rttvar =
  let base = if rtt_valid then srtt +. (4. *. rttvar) else 1.0 in
  Float.min 64. (Float.max min_rto base *. backoff)

let timeout ~min_rto ~backoff ~rtt_valid ~srtt ~rttvar =
  formula ~min_rto ~backoff ~rtt_valid ~srtt ~rttvar

(* The struct-of-arrays entry: reading the slots here rather than in the
   caller keeps srtt, rttvar and the backoff unboxed across the call. *)
let slot_timeout ~min_rto ~backoff_exp ~rtt_valid slots ~srtt ~rttvar =
  formula ~min_rto
    ~backoff:(float_of_int (1 lsl backoff_exp))
    ~rtt_valid ~srtt:(Float.Array.get slots srtt)
    ~rttvar:(Float.Array.get slots rttvar)

let[@inline] double_backoff backoff = Float.min 64. (backoff *. 2.)

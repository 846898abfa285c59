let[@inline] timeout ~min_rto ~max_rto ~backoff ~rtt_valid ~srtt ~rttvar =
  let base = if rtt_valid then srtt +. (4. *. rttvar) else 1.0 in
  Float.min max_rto (Float.max min_rto base *. backoff)

let[@inline] double_backoff backoff = Float.min 64. (backoff *. 2.)

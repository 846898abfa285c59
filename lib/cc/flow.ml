type stats = {
  sent_pkts : int;
  sent_bytes : float;
  delivered_bytes : float;
  rtx_pkts : int;
  timeouts : int;
  fast_rtx : int;
  stat_srtt : float;
}

type t = {
  id : int;
  protocol : string;
  start : unit -> unit;
  stop : unit -> unit;
  pkts_sent : unit -> int;
  bytes_sent : unit -> float;
  bytes_delivered : unit -> float;
  srtt : unit -> float;
  stats : unit -> stats;
}

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

let json_of_stats s =
  Engine.Json.Obj
    [
      ("sent_pkts", Engine.Json.Int s.sent_pkts);
      ("sent_bytes", Engine.Json.Float s.sent_bytes);
      ("delivered_bytes", Engine.Json.Float s.delivered_bytes);
      ("rtx_pkts", Engine.Json.Int s.rtx_pkts);
      ("timeouts", Engine.Json.Int s.timeouts);
      ("fast_rtx", Engine.Json.Int s.fast_rtx);
      ("srtt", Engine.Json.Float s.stat_srtt);
    ]

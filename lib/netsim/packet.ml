type tfrc_feedback = {
  loss_event_rate : float;
  recv_rate : float;
  timestamp_echo : float;
  delay_echo : float;
  new_loss : bool;
}

type payload =
  | Plain
  | Ack of { cum_seq : int; sack : (int * int) list }
  | Rap_ack of { cum_seq : int }
  | Tfrc_data of { timestamp : float; rtt_estimate : float }
  | Tfrc_fb of tfrc_feedback
  | Tear_fb of {
      rate_pps : float;
      timestamp_echo : float;
      delay_echo : float;
    }

type t = {
  flow : int;
  src : int;
  dst : int;
  size : int;
  seq : int;
  payload : payload;
  mutable ecn : bool;
}

let make ~size ~seq ~payload ~flow ~src ~dst =
  { flow; src; dst; size; seq; payload; ecn = false }

let dummy = make ~size:0 ~seq:0 ~payload:Plain ~flow:(-1) ~src:(-1) ~dst:(-1)

let is_ack t =
  match t.payload with
  | Ack _ | Rap_ack _ | Tfrc_fb _ | Tear_fb _ -> true
  | Plain | Tfrc_data _ -> false

let pp fmt t =
  Format.fprintf fmt "pkt flow=%d seq=%d %d->%d size=%d" t.flow t.seq t.src
    t.dst t.size

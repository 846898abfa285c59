(** Simulated packets.

    Every packet is a fresh record from {!make}, including the ack or
    feedback packet a receiver emits per data packet: a short-lived
    packet costs the minor heap almost nothing, and keeping spent
    packets for reuse only keeps them alive longer (DESIGN §7).  The
    only mutable field is the ECN mark, which a RED queue sets in flight
    and a receiver copies into its ack; transport-specific control
    information rides in [payload].

    A packet carries no identity or send time of its own: [pp] and
    {!Trace} name it by flow and seq, and a sender that samples RTTs
    keeps its own send times (one probe time per window flow, a per-seq
    table in BBR and Vegas, a timestamp in the TFRC payload).  So a data
    packet is seven fields with no boxed float, and minting one touches
    no state shared between domains. *)

type tfrc_feedback = {
  loss_event_rate : float;  (** receiver's current loss-event rate estimate *)
  recv_rate : float;  (** bytes/s received over the last RTT *)
  timestamp_echo : float;  (** sender timestamp being echoed, for RTT *)
  delay_echo : float;  (** receiver-side hold time to subtract *)
  new_loss : bool;  (** a new loss event occurred since the last feedback *)
}

type payload =
  | Plain
  | Ack of {
      cum_seq : int;  (** cumulative: all seq < cum_seq received *)
      sack : (int * int) list;
          (** selective-ack blocks [lo, hi), newest first, at most 3 *)
    }
  | Rap_ack of { cum_seq : int }  (** the data packet being acked *)
  | Tfrc_data of { timestamp : float; rtt_estimate : float }
  | Tfrc_fb of tfrc_feedback
  | Tear_fb of {
      rate_pps : float;  (** receiver-computed TCP-fair rate *)
      timestamp_echo : float;
      delay_echo : float;
    }

type t = {
  flow : int;  (** flow identifier; sinks dispatch on this *)
  src : int;  (** source node id *)
  dst : int;  (** destination node id *)
  size : int;  (** bytes on the wire *)
  seq : int;  (** data sequence number, in packets *)
  payload : payload;
  mutable ecn : bool;  (** congestion-experienced mark *)
}

(** A zero/placeholder packet for preallocated slots (never transmitted). *)
val dummy : t

(** A fresh packet with no ECN mark.  Every argument is required: under
    [-opaque] an optional argument costs a [Some] box per packet.  Acks
    and feedback pass [~seq:0]. *)
val make :
  size:int -> seq:int -> payload:payload -> flow:int -> src:int -> dst:int -> t

val is_ack : t -> bool

(** [pkt flow=F seq=S SRC->DST size=B]. *)
val pp : Format.formatter -> t -> unit

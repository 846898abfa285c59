(** Data receiver that generates an immediate cumulative ACK per data
    packet, for the {!Bbr} and {!Vegas} senders (the window sender
    {!Flow_soa} keeps its own sink state).  The paper's TCP is modeled
    without delayed acks (its AIMD has a = 1), so there is no
    delayed-ack timer.

    Out-of-order arrivals are buffered logically; the cumulative ack always
    names the lowest sequence number not yet received, so duplicate acks
    signal holes to the sender.  Acks carry no SACK blocks.  ECN marks on
    data are echoed on acks. *)

type t

(** Bytes per ack packet. *)
val ack_size : int

(** [attach ~sim ~node ~flow ~peer] registers the sink on [node] for
    [flow]; acks of {!ack_size} bytes are addressed to node id [peer]. *)
val attach :
  sim:Engine.Sim.t -> node:Netsim.Node.t -> flow:int -> peer:int -> t

(** Total data bytes delivered (including duplicates). *)
val bytes_received : t -> float

(** Data packets delivered so far (including duplicates). *)
val pkts_received : t -> int

(** Lowest sequence number not yet received. *)
val cumulative : t -> int

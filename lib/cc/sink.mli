(** Data receiver that generates an immediate cumulative ACK per data
    packet.  The paper's TCP is modeled without delayed acks (its AIMD
    has a = 1), so there is no delayed-ack timer.

    Out-of-order arrivals are buffered logically; the cumulative ack always
    names the lowest sequence number not yet received, so duplicate acks
    signal holes to the sender.  ECN marks on data are echoed on acks. *)

type t

(** Bytes per ack packet. *)
val ack_size : int

(** [attach ~sack ~sim ~node ~flow ~peer] registers the sink on [node]
    for [flow]; acks of {!ack_size} bytes are addressed to node id
    [peer].

    [sack] controls whether each ack carries SACK blocks.  Senders that
    don't implement SACK must pass [false]: they would ignore the
    blocks, and skipping the per-ack fold over the out-of-order set —
    the single largest allocation on the TCP hot path — is
    behavior-identical for them.  [Window_cc] passes its own [cfg.sack]
    through. *)
val attach :
  sack:bool ->
  sim:Engine.Sim.t ->
  node:Netsim.Node.t ->
  flow:int ->
  peer:int ->
  t

(** Total data bytes delivered (including duplicates). *)
val bytes_received : t -> float

(** Distinct in-order data packets delivered so far. *)
val pkts_received : t -> int

(** Lowest sequence number not yet received. *)
val cumulative : t -> int

(** {2 Fluid fast-forward hooks}

    Used by the hybrid fluid/packet engine while the peer sender is
    frozen; never called in pure packet mode. *)

(** Fold [pkts] fluid-model packets of [pkt_size] bytes into the delivery
    counters without generating acks. *)
val ff_credit : t -> pkts:int -> pkt_size:int -> unit

(** Jump the receive frontier forward to [next_expected] (dropping the
    out-of-order buffer) so the resumed sender's new frontier is
    in-order.  Raises [Invalid_argument] on a backwards jump. *)
val fast_forward : t -> next_expected:int -> unit

(** The rate-timer sender core shared by {!Rap}, {!Tfrc}, {!Tear} and
    {!Cbr}.

    These senders transmit on a timer, not on ack arrivals: each data
    packet re-arms one {!Engine.Sim.timer} at a gap the protocol computes
    after the packet left.  The core owns that loop and everything else
    the four share: the endpoints, the running flag, the sequence
    counter (which also counts packets sent), bytes delivered at the
    destination, the {!Flow.t} handle, the sender's RTT estimate and
    TFRC's timestamp echo, which TEAR reuses.  A protocol keeps only its
    control law and its receiver, and hands them over as hooks once, at
    {!create}.

    Until the first sample the RTT estimate is 0.2 s, on both ends. *)

type 's t
(** A flow whose protocol state is ['s]. *)

(** [create ... state] attaches the destination's handler and returns a
    stopped flow.  Hooks, all called with the flow itself:
    - [payload] builds each data packet's payload just before the packet
      is made; it may record per-packet state (RAP's send times).
      Default {!Netsim.Packet.Plain}.
    - [gap] is the delay to the next data packet, read right after each
      one is injected.
    - [receive] is the protocol's receiver.  Every packet the destination
      gets for this flow is a data packet; the core counts its bytes
      first.  Default: count only.
    - [on_start] and [on_stop] run after the core's own start (which
      sends the first packet) and stop (which disarms the send timer). *)
val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  pkt_size:int ->
  ?payload:('s t -> Netsim.Packet.payload) ->
  gap:('s t -> float) ->
  ?receive:('s t -> Netsim.Packet.t -> unit) ->
  ?on_start:('s t -> unit) ->
  ?on_stop:('s t -> unit) ->
  's ->
  's t

val state : 's t -> 's

(** The handle scenarios drive.  [pkts_sent] is the sequence counter and
    [bytes_sent] is [seq * pkt_size]; loss-recovery counters are zero.
    [srtt] defaults to {!rtt}. *)
val flow : ?srtt:(unit -> float) -> 's t -> protocol:string -> Flow.t

val now : 's t -> float
val flow_id : 's t -> int
val running : 's t -> bool

(** Sequence number of the next data packet (= packets sent so far). *)
val seq : 's t -> int

(** {2 Sender's RTT estimate} *)

(** Smoothed RTT, or 0.2 s before the first sample. *)
val rtt : 's t -> float

(** [sample_rtt t ~gain ~sent] folds in the RTT of a packet sent at
    [sent] and acked now, with weight [gain]; the first sample replaces
    the default. *)
val sample_rtt : 's t -> gain:float -> sent:float -> unit

(** {2 Timestamp echo (TFRC, TEAR)}

    Data packets carry the send time and the sender's RTT estimate; the
    receiver echoes the newest timestamp with the time it held it, and
    the sender samples [now - timestamp - delay]. *)

(** [Tfrc_data] stamped now, with the RTT estimate (0 before a sample). *)
val echo_payload : 's t -> Netsim.Packet.payload

(** The receiver's first step on each data packet, which arrived [now]:
    keep its timestamp and the sender's estimate. *)
val note_echo : 's t -> now:float -> Netsim.Packet.t -> unit

(** The receiver's RTT: the sender's last nonzero estimate, else 0.2 s. *)
val receiver_rtt : 's t -> float

(** Timestamp of the newest data packet, and how long ago it arrived. *)
val timestamp_echo : 's t -> float

val delay_echo : 's t -> float

(** Fold in the echoed sample with weight 0.1, if it is positive. *)
val echo_sample : 's t -> timestamp:float -> delay:float -> unit

(** Send a {!Sink.ack_size}-byte control packet from the destination back
    to the source. *)
val reply : 's t -> Netsim.Packet.payload -> unit

(** Unidirectional link: a queue feeding a transmitter with finite
    bandwidth, followed by fixed propagation delay.

    Transmission and propagation are pipelined: the transmitter starts the
    next packet as soon as the previous one is on the wire. *)

type t

val make :
  sim:Engine.Sim.t ->
  bandwidth:float (** bits/s *) ->
  delay:float (** propagation, seconds *) ->
  queue:Queue_intf.t ->
  t

(** Set the receiver of packets at the far end (usually [Node.receive]). *)
val connect : t -> (Packet.t -> unit) -> unit

(** Offer a packet to the link's queue; may drop.  A dropped packet is
    counted and shown to the drop hooks, and nothing sees it after
    them. *)
val send : t -> Packet.t -> unit

val queue : t -> Queue_intf.t

(** Serialization time of a packet of [bytes] bytes. *)
val tx_time : t -> bytes:int -> float

(** Cumulative counters since creation. *)
val arrivals : t -> int

val drops : t -> int
val departures : t -> int

(** Packets handed to the far-end receiver (departures that completed
    propagation). *)
val delivered : t -> int

(** Packets currently in propagation (departed, not yet delivered). *)
val in_flight : t -> int

(** True while a packet is serializing onto the wire. *)
val busy : t -> bool

val bytes_out : t -> float

(** Audit checkpoint: verify this link's conservation laws now
    (arrivals = drops + departures + queued + serializing, and
    departures − delivered = in flight, non-negative queue occupancy).
    Raises [Engine.Audit.Violation] on failure.  Runs automatically after
    every [send]/transmission completion under
    [Engine.Audit.invariants_on]; exposed for end-of-run sweeps. *)
val check_conservation : t -> unit

(** [utilization t ~elapsed] is the fraction of capacity used over the
    last [elapsed] seconds of simulated time: [bytes_out * 8 / (bw * s)].
    0 when [elapsed <= 0]. *)
val utilization : t -> elapsed:float -> float

(** Link counters plus the queue discipline's own counters (prefixed with
    the discipline name), e.g. [("arrivals", _); ("red.early_drop", _)]. *)
val counters : t -> (string * int) list

(** Hook invoked for every dropped packet (monitoring / tests). *)
val on_drop : t -> (Packet.t -> unit) -> unit

(** [on_queue_delay t hook] invokes [hook pkt delay] when [pkt] starts
    serializing, where [delay] is the time the packet spent queued
    (enqueue to tx-start; 0 for a packet that arrived at an idle link).
    Packets already queued when the first hook is registered are skipped.
    Purely observational: with no hooks registered the link's behavior
    and cost are unchanged, and the hook itself must not mutate the
    simulation mid-event.  Exact because queues are strictly FIFO and
    drop only at enqueue. *)
val on_queue_delay : t -> (Packet.t -> float -> unit) -> unit

(** Many-flow execution path for windowed (TCP-style) senders and sinks.

    One value holds the state of [n] flows between a shared source and
    destination node, laid out struct-of-arrays: every per-flow mutable
    field lives in a parallel unboxed [floatarray] / [int array] slot
    indexed by dense flow index, so 10⁵+ flows fit in flat memory with
    no per-flow closures, timer objects or hash entries.  The congestion
    control is a field-for-field transliteration of {!Window_cc}
    restricted to its dominant configuration (no SACK, unbounded
    transfer): at equal inputs the two engines produce byte-identical
    end states — the differential fuzzer checks this.

    Per-flow RTO timers are consolidated into a single calendar-queue
    timer wheel for the whole engine, with the same lazy-cancel /
    lazy-re-arm semantics as per-flow {!Engine.Sim.timer}s.  Wheel
    entries carry sequence numbers burned from the simulator's insertion
    counter ({!Engine.Sim.alloc_seq}), so RTO firings keep the exact
    (time, FIFO) position per-flow timers would have — byte-identical
    schedules even when deadlines collide with other events at exact
    float timestamps.

    Flow indexes are [0 .. n-1]; the wire-visible flow id of index [i]
    is [base + i]. *)

(** The initial window, initial ssthresh, window cap and [min_rto] are
    not settings here: every flow takes them from
    [Window_cc.default_config rule], so the two engines cannot drift.
    Acks are {!Sink.ack_size} bytes. *)
type config = {
  rule : Window_cc.rule;
  pkt_size : int;
  ack_batching : bool;
      (** coalesce same-instant acks per flow at the sink.  Changes ack
          timing/count, so digest-equivalence with the per-object engine
          only holds when off (the default). *)
}

(** 1000-byte packets; batching off. *)
val default_config : Window_cc.rule -> config

type t

(** [create ~sim ~src ~dst ~base ~n cfg] attaches [n] sender/sink pairs
    for flow ids [base .. base+n-1] between [src] and [dst] (data flows
    [src] → [dst]).  Reserves dense dispatch slots on both nodes.
    @raise Invalid_argument unless [1 <= n <= 2^20] and [base >= 0]. *)
val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  base:int ->
  n:int ->
  config ->
  t

val n : t -> int

(** Start/stop flow index [i] (mirrors {!Window_cc.start}/[stop]). *)
val start : t -> int -> unit

val stop : t -> int -> unit

(** {2 Per-flow observers} (index, not flow id) *)

val pkts_sent : t -> int -> int
val bytes_sent : t -> int -> float
val delivered_pkts : t -> int -> int
val bytes_delivered : t -> int -> float
val srtt : t -> int -> float
val cwnd : t -> int -> float
val timeouts : t -> int -> int
val fast_retransmits : t -> int -> int
val retransmitted_pkts : t -> int -> int
val stats : t -> int -> Flow.stats

(** Closure view of flow index [i], for code that consumes {!Flow.t}
    (tracing, digests).  Allocates; not for per-packet use. *)
val flow : t -> int -> Flow.t

(** {2 RTO-wheel introspection} (tests / instrumentation)

    The consolidated wheel lazily re-arms timers, stranding stale
    entries; a sweep bounds the total at [2 * tracked + 64] where
    [tracked] is the number of flows holding a live entry. *)

val wheel_size : t -> int

val wheel_tracked : t -> int

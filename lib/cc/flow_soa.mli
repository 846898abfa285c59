(** The window sender: TCP(b), SQRT and IIAD flows with their acking
    sinks, for one flow or for 10⁵.

    One value holds the state of [n] flows between a shared source and
    destination node, laid out struct-of-arrays: every per-flow mutable
    field is a run of [n] unboxed slots, indexed by dense flow index, in
    one [floatarray] (8 B slots) or one [Bytes] of 32-bit int slots, so
    10⁵+ flows fit in 116 B each of flat memory with no per-flow
    closures, timer objects, hash entries or dispatch entries.  A single
    figure flow is a one-slot engine ([~n:1]); the many-flow ensembles
    are one n-slot engine.  Both run this code, so a change to the
    sender lands once.

    Every flow of an engine shares one {!Window_cc.config}: its rule,
    windows, [min_rto], SACK, transfer size and completion callback.
    State that only some configurations use costs the others nothing:
    the SACK scoreboard exists only when [cfg.sack].

    Per-flow RTO timers are consolidated into a single calendar-queue
    timer wheel for the whole engine, with the same lazy-cancel /
    lazy-re-arm semantics as per-flow {!Engine.Sim.timer}s.  Wheel
    entries carry sequence numbers burned from the simulator's insertion
    counter ({!Engine.Sim.alloc_seq}), so RTO firings keep the exact
    (time, FIFO) position per-flow timers would have: an n-slot engine
    ends byte-identical to n one-slot engines at equal inputs, even when
    deadlines collide with other events at exact float timestamps.
    [Slowcc.Manyflow.check_equiv] and the differential fuzzer check
    this.

    Flow indexes are [0 .. n-1]; the wire-visible flow id of index [i]
    is [base + i].  Acks are {!Sink.ack_size} bytes. *)

type t

(** The most flows one engine holds: 2^20.  The RTO wheel packs a flow
    index into 20 bits of each entry's key.

    Each flow's sequence numbers and counters live in 32-bit slots, so
    one flow sends fewer than 2^31 packets (about 2 TB at 1000-byte
    packets).  A value past that raises [Invalid_argument] from the
    event that produced it instead of wrapping. *)
val max_flows : int

(** [create ~sim ~src ~dst ~base ~n cfg] attaches [n] sender/sink pairs
    for flow ids [base .. base+n-1] between [src] and [dst] (data flows
    [src] → [dst]), as one {!Netsim.Node.attach} range on each node.
    The flows do not transmit until {!start}.
    @raise Invalid_argument unless [1 <= n <= max_flows], [base >= 0]
    and [cfg.initial_window >= 1], or if the id range partly overlaps
    one already attached on either node. *)
val create :
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  base:int ->
  n:int ->
  Window_cc.config ->
  t

val n : t -> int

(** Start flow index [i]; a no-op while it runs or once it finished. *)
val start : t -> int -> unit

(** Stop flow index [i]: it sends nothing more and ignores late acks. *)
val stop : t -> int -> unit

(** Closure view of flow index [i], for code that consumes {!Flow.t}.
    Allocates; not for per-packet use. *)
val flow : t -> int -> Flow.t

(** {2 Per-flow observers} (index, not flow id) *)

val pkts_sent : t -> int -> int
val bytes_sent : t -> int -> float
val delivered_pkts : t -> int -> int
val bytes_delivered : t -> int -> float
val srtt : t -> int -> float
val cwnd : t -> int -> float
val ssthresh : t -> int -> float

(** Current retransmit timeout as the RTO timer would arm it: backoff
    applied to [srtt + 4*rttvar] (1 s before the first valid sample),
    floored at [cfg.min_rto] and capped at 64 s ({!Rto.timeout}). *)
val rto : t -> int -> float

(** Sent but not yet cumulatively acked packets. *)
val inflight : t -> int -> int

(** Whether a bounded transfer ([cfg.total_pkts]) is fully acked. *)
val finished : t -> int -> bool

val timeouts : t -> int -> int
val fast_retransmits : t -> int -> int
val retransmitted_pkts : t -> int -> int
val stats : t -> int -> Flow.stats

(** {2 RTO-wheel introspection} (tests / instrumentation)

    The consolidated wheel lazily re-arms timers, stranding stale
    entries; a sweep bounds the total at [2 * tracked + 64] where
    [tracked] is the number of flows holding a live entry. *)

val wheel_size : t -> int

val wheel_tracked : t -> int

(** ns-2-style calendar queue: amortized O(1) timed-event scheduling.

    A bucketed timer ring with automatic resize of bucket count and width.
    Events pop in lexicographic (time, key) order.  An entry added with
    {!add} takes the queue's insertion counter as its key, so values added
    at equal timestamps pop first in, first out.  Steady-state add/take
    allocates nothing — nodes live in pooled parallel arrays and are
    linked into buckets by index.

    Every entry has an integer key that breaks time ties: [add] uses the
    insertion counter, [add_with_seq] an explicit seq, and {!add_key}
    any caller-chosen key, with no value at all. *)

type 'a t

val create : unit -> 'a t

(** [add t ~time v] schedules [v] at [time].  [time] must be finite and
    non-negative.  Adding behind the last dequeued time is permitted but
    slow; the simulator never does it. *)
val add : 'a t -> time:float -> 'a -> unit

(** {2 Explicit sequence numbers}

    [alloc_seq] burns one value of the insertion counter without
    inserting.  [add_with_seq ~time ~seq] later inserts an entry whose key
    ({!min_key}) is [seq], so it pops exactly where [add ~time] would
    have, had it been called when [seq] was burned.  The SoA RTO wheel
    uses this to put its single simulator entry at the logical position a
    per-flow insertion would have had.  The caller must preserve pop
    order: never insert a (time, seq) pair that sorts before an already
    dequeued event. *)

(** Advance the insertion counter by one and return the burned value. *)
val alloc_seq : 'a t -> int

(** [add_with_seq t ~time ~seq v] schedules [v] at [time] with the
    explicit tie-break [seq].  [seq] may come from another queue's
    counter; it only has to be non-negative and respect pop-order. *)
val add_with_seq : 'a t -> time:float -> seq:int -> 'a -> unit

(** Key of the earliest event: its insertion seq unless it was added
    with {!add_key}.  Raises [Invalid_argument] on an empty queue. *)
val min_key : 'a t -> int

(** Remove and return the earliest event, or [None] if empty. *)
val pop : 'a t -> (float * 'a) option

(** Allocation-free variant of {!pop}: remove and return the earliest
    event's value.  Raises [Invalid_argument] on an empty queue; read
    {!min_time} first for the timestamp.  A [min_time], [min_key] or
    [take] that follows another with no insert or remove in between
    reuses its bucket search. *)
val take : 'a t -> 'a

(** Earliest event time without removing it, [Float.nan] if empty.  The
    allocation-free counterpart of {!peek_time}. *)
val min_time : 'a t -> float

(** Earliest event time without removing it. *)
val peek_time : 'a t -> float option

val size : 'a t -> int
val is_empty : 'a t -> bool

(** {2 Keyed entries}

    An entry whose key is its whole payload: no value slot is written,
    and a queue that only ever holds keyed entries never allocates its
    value array, so a node costs three words instead of four.  Keys
    order ties at equal times, like seqs do; a caller that packs
    [seq lsl bits lor index] with unique seqs keeps (time, seq) FIFO
    order.  Keyed entries live in a [unit t], so {!take} or {!pop} of
    one returns [()]. *)

(** [add_key t ~time ~key] inserts a keyed entry.
    @raise Invalid_argument on a non-finite or negative time, or a
    negative key. *)
val add_key : unit t -> time:float -> key:int -> unit

(** Remove the earliest entry and return its key.
    @raise Invalid_argument when empty. *)
val take_key : unit t -> int

(** Keep only entries satisfying [keep ~key ~time], in one O(size)
    rebuild.  Survivors keep their (time, key) order. *)
val filter : unit t -> keep:(key:int -> time:float -> bool) -> unit

(** Drop all events.  Vacated slots are overwritten so the GC can reclaim
    the dropped payloads immediately. *)
val clear : 'a t -> unit

(** {2 Introspection} — exposed for tests and the resize-policy bench. *)

(** Current number of buckets in the ring (a power of two). *)
val buckets : 'a t -> int

(** Current bucket width in seconds. *)
val width : 'a t -> float

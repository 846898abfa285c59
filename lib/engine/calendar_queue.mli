(** ns-2-style calendar queue: amortized O(1) timed-event scheduling.

    A bucketed timer ring with automatic resize of bucket count and width,
    matching {!Event_heap}'s API and ordering contract exactly: events pop
    in lexicographic (time, insertion-order) order, so FIFO within equal
    timestamps.  Steady-state add/take allocates nothing — nodes live in
    pooled parallel arrays and are linked into buckets by index.

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

    Same contract as {!Event_heap.alloc_seq}/{!Event_heap.add_with_seq}:
    burn a tie-break counter value without inserting, then insert at an
    explicitly chosen seq.  Used by the consolidated RTO wheel to place
    its single simulator entry at the exact logical position a per-flow
    insertion would have had.  The caller must preserve pop-order: never
    insert a (time, seq) pair sorting before an already dequeued event.
    The seq is the entry's key ({!min_key}). *)

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
    {!min_time} first for the timestamp. *)
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

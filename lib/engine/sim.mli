(** Discrete-event simulation clock and scheduler.

    A [Sim.t] owns the virtual clock and a queue of timed thunks.  All
    simulated components schedule closures through it; [run] drains events
    in time order until the queue is empty or a stop condition fires.

    The event queue is either a binary heap or an ns-2-style calendar
    queue ({!Scheduler.kind}); both pop in (time, insertion-order) order,
    so every simulation is byte-identical under either. *)

type t

(** [create ?sched ()] makes a fresh simulator.  [sched] defaults to
    {!Scheduler.get_default} (calendar queue unless overridden). *)
val create : ?sched:Scheduler.kind -> unit -> t

(** Which event queue this simulator runs on. *)
val scheduler : t -> Scheduler.kind

(** Current virtual time in seconds. *)
val now : t -> float

(** [at t time f] runs [f] at absolute [time].  Scheduling in the past
    raises [Invalid_argument]. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t delay f] runs [f] at [now t +. delay]. *)
val after : t -> float -> (unit -> unit) -> unit

(** {2 Explicit sequence numbers}

    Events at equal timestamps pop in insertion order, tie-broken by a
    per-queue counter.  An aggregating scheduler (the struct-of-arrays
    RTO wheel) funnels many logical timers through few physical queue
    entries, yet must preserve the exact pop position each logical
    insertion would have had.  [alloc_seq] burns one counter value
    without inserting; [at_seq] schedules an event at a previously
    burned seq.  Misuse breaks FIFO-at-equal-times determinism — never
    insert a (time, seq) that sorts before an already dequeued event. *)

(** Advance the queue's insertion counter by one, returning the value. *)
val alloc_seq : t -> int

(** [at_seq t time ~seq f] runs [f] at absolute [time], tie-broken as
    the [seq]-th insertion.  Scheduling in the past raises
    [Invalid_argument]. *)
val at_seq : t -> float -> seq:int -> (unit -> unit) -> unit

(** {2 Reusable timers}

    A [timer] is an arm/disarm-many-times alarm bound to one callback at
    creation; it is the simulator's only cancellable event.  Re-arming a
    timer allocates nothing, which matters for per-ack retransmit
    timers.  Arming while
    already armed simply replaces the deadline.  A timer keeps at most one
    live queue entry: re-arming LATER than the pending entry is O(1) (the
    entry chases the deadline when it pops), so the ack-path pattern
    "push the RTO out on every ack" costs one queue insert per RTO
    interval, not one per ack.  Firing times are unchanged. *)

type timer

(** [timer t f] makes a disarmed timer that runs [f] when it expires. *)
val timer : t -> (unit -> unit) -> timer

(** Arm (or re-arm) at absolute [time].  Scheduling in the past raises
    [Invalid_argument]. *)
val arm_at : timer -> float -> unit

(** Arm (or re-arm) at [now +. delay]. *)
val arm_after : timer -> float -> unit

(** Disarm; a no-op if not armed. *)
val disarm : timer -> unit

val timer_armed : timer -> bool

(** [every t ~interval ~stop f] runs [f] every [interval] seconds starting
    at [now +. interval] until [stop] (absolute time, default: forever).
    Tick [k] lands exactly on [now +. k *. interval] — the grid does not
    drift over long runs. *)
val every : ?stop:float -> t -> interval:float -> (unit -> unit) -> unit

(** Drain events until the queue is empty, [until] is reached (the clock
    is then left at [until]), or [stop] is called. *)
val run : ?until:float -> t -> unit

(** Stop [run] after the current event completes. *)
val stop : t -> unit

(** Number of events processed so far. *)
val events_processed : t -> int

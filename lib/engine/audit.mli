(** Opt-in simulation auditing.

    One flag-gated check family, compiled in but costing one
    load-and-branch per checkpoint when off: {e invariants}, the
    packet-conservation laws at per-packet checkpoints (link arrivals =
    drops + departures + queued + serializing, departures − delivered =
    in flight, non-negative queue occupancy, monotone event times, FIFO
    pop order at equal timestamps).

    Checks never mutate simulation state, add events or consume random
    numbers, so audited runs are byte-identical to unaudited ones.

    The [SLOWCC_AUDIT] environment variable sets the initial state:
    [off]/[0] (default), or [all]/[1]/[on]/[invariants]. *)

(** Raised by a failed check.  Also counted in {!violation_count} for
    harnesses that catch it and continue (the fuzzer). *)
exception Violation of string

(** Raise {!Violation} with a formatted message and bump the counter. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

val violation_count : unit -> int
val reset_violations : unit -> unit
val invariants_on : unit -> bool
val disable_all : unit -> unit

(** Parse and apply a [SLOWCC_AUDIT]-style spec string: a
    comma-separated list whose unknown tokens warn and change nothing. *)
val apply_spec : string -> unit

(** Run [f] with the switch forced to [invariants], restoring the
    previous state afterwards (exception-safe). *)
val with_flags : invariants:bool -> (unit -> 'a) -> 'a

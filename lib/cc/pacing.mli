(** Token-bucket packet pacer on a single reusable simulator timer.

    A pacer spaces packet emissions [1 /. rate] apart.  The owning
    transport supplies an [emit] callback: transmit one packet and return
    [true], or return [false] when nothing is sendable (window full, no
    data).  After a [false] the pacer goes idle — no armed timer, no
    events — until the transport calls {!kick} (typically from its ack
    handler).

    Emissions always run as their own scheduler event ({!kick} never
    invokes [emit] on the caller's stack), so send ordering is
    deterministic. *)

type t

val create : sim:Engine.Sim.t -> emit:(unit -> bool) -> t
(** [create ~sim ~emit] makes a stopped pacer with rate 0.  At most one
    whole-packet token accumulates while the transport has nothing to
    send, so a wake-up never releases a burst. *)

val start : t -> unit
(** Begin pacing (idempotent).  Tokens do not accrue while stopped. *)

val stop : t -> unit
(** Stop pacing and disarm the timer (idempotent). *)

val kick : t -> unit
(** Wake an idle running pacer: if tokens are available, [emit] runs as a
    fresh event at the current simulated time; otherwise the timer is
    armed for the next token.  No-op when stopped, rate is 0, or a
    wake-up is already pending. *)

val set_rate_pps : t -> float -> unit
(** Change the pacing rate (packets per simulated second).  Tokens
    accrued under the old rate are credited first; a pending wake-up is
    re-derived from the new rate.  Rate [0.] pauses emission until a
    positive rate is set and {!kick} is called.  Raises [Invalid_argument]
    on negative or non-finite rates. *)

val rate_pps : t -> float
(** Current rate in packets per simulated second. *)

val tokens : t -> float
(** Tokens available right now (after refill); for tests. *)

val sends : t -> int
(** Total successful emissions ([emit] returned [true]). *)

val idle : t -> bool
(** [true] when no wake-up is armed (stopped, rate 0, or waiting for
    {!kick}). *)

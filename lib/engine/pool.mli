(** Fixed-size pool of worker domains with a shared job queue.

    Built directly on [Domain]/[Mutex]/[Condition] (no external
    dependency).  The pool executes batches of independent jobs through
    {!map_list}: jobs are enqueued, and results reassembled, in
    submission order, so a caller that seeds each job deterministically
    gets bit-identical results regardless of the worker count.

    Semantics:
    - [jobs = 1] is the degenerate case: no domains are spawned and every
      job runs inline in the submitting domain.
    - Batches submitted from inside a worker (nested use) run inline in
      that worker, which makes reentrant use deadlock-free.
    - If a job raises, the remaining jobs of the batch still run; the
      batch call then re-raises the exception of the lowest-indexed
      failed job with its original backtrace. *)

type t

(** Sensible default worker count for this machine:
    [Domain.recommended_domain_count ()], at least 1. *)
val default_jobs : unit -> int

(** Apply the engine GC policy to the calling domain: a 1M-word minor
    heap (vs the 256k default) so the steady trickle of event closures
    triggers fewer minor collections, and a space overhead of 120.
    [create] applies it to the submitting domain and every worker
    applies it on spawn; call it directly for domains the pool does not
    manage. *)
val tune_gc : unit -> unit

(** [create ~jobs] makes a pool that will use at most [jobs] (clamped
    to 1–128) worker domains.  Workers are spawned lazily at submission time and
    clamped to the batch size, so a pool sized for the machine never runs
    more domains than it has jobs in flight; the submitting domain itself
    only waits on batches. *)
val create : jobs:int -> t

(** Worker count the pool was created with (>= 1). *)
val jobs : t -> int

(** [map_list t f xs] applies [f] to every element of [xs] on the pool and
    returns the results in the order of [xs]. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Signal workers to finish and join them.  Idempotent.  Submitting new
    batches after [shutdown] raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] creates a pool, passes it to [f] and shuts the
    pool down afterwards, also on exception. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

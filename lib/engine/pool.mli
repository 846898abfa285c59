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

(** {2 Execution backends}

    The pool type below is the {e domain} backend: shared-memory worker
    domains inside one process.  Sweeps can also run on the {e process}
    backend — a pool of worker processes (possibly on several machines
    sharing a filesystem) coordinating through a persisted work queue and
    the content-addressed result cache.  Both backends execute the same
    closed, independently-seeded jobs and reassemble in submission order,
    so output bytes are identical under either; which one wins is purely
    a hardware question (domains share one minor-GC clock, processes do
    not).  The process backend itself lives above the engine (it needs
    the result cache and an executable to spawn — see [Slowcc.Workqueue]
    and the [slowcc_run worker] subcommand); this enum only names the
    choice for CLIs and benchmarks. *)
type backend =
  | Domains  (** worker domains in-process, selected with [--jobs] *)
  | Procs
      (** worker processes over a shared cache dir, selected with
          [--workers] *)

val backend_of_string : string -> backend option
val backend_to_string : backend -> string

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

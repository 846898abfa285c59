(** Persistent work queue for distributed sweeps: the coordination layer
    of the process-pool backend.

    A queue is a directory (by convention created {e inside} a result
    cache directory) holding one file per job.  Workers are ordinary
    processes — [slowcc_run worker <queue-dir>] invocations, forked
    benchmark children, or processes on another machine sharing the
    filesystem — that claim jobs with an atomic [rename(2)], execute
    them through {!Experiments.run_cached} (publishing result bytes as
    content-addressed cache entries), and mark completion.  Because
    results flow through the cache, the coordinator reassembles output
    in submission order by cache lookup: bytes are identical to a serial
    run by construction, and a job executed twice (crash recovery)
    merely overwrites a cache entry with identical content.

    {2 File states}

    {v
    <dir>/queue.json                    schema, fingerprint, quick, job list
    <dir>/todo/NNN-<unit>               claimable (NNN = submission index)
    <dir>/claims/NNN-<unit>.claim.<worker>.<expiry-ms>   claimed, leased
    <dir>/done/NNN-<unit>               completion marker (ok or failed)
    v}

    A job moves [todo -> claims] by rename (exactly one winner), then
    [-> done] by an atomic marker write.  The claim filename carries the
    worker id and lease expiry, so a crashed worker's claim is visible
    to everyone without reading file contents or trusting mtimes; any
    process may requeue an expired claim ([claims -> todo], again one
    rename winner).  Jobs that {e fail} (the run function raises) write
    a [done] marker with [ok = false] and are not retried — the
    coordinator recomputes them locally at assembly time; jobs whose
    worker {e dies} leave their claim to expire and are retried.

    The module is wall-clock- and OS-agnostic: callers supply [now]
    (Unix epoch seconds) and [sleep], so the core library keeps its
    no-unix-dependency rule and tests can compress time. *)

type job = {
  index : int;  (** submission index — the claim and assembly order *)
  name : string;  (** experiment unit id, e.g. ["fig7"] *)
}

type t

val dir : t -> string
val fingerprint : t -> string
val quick : t -> bool

(** Jobs in submission order, as seeded. *)
val jobs : t -> job list

(** [seed ~dir ~fingerprint ~quick ~jobs] creates the queue directory
    and one claimable file per [(unit, estimate)] pair, named by
    submission index, so workers scanning the directory in sorted order
    claim jobs in submission order.  The estimate is ignored; the pair
    type stays for existing callers.  Raises [Sys_error] if [dir] already
    contains a queue. *)
val seed :
  dir:string ->
  fingerprint:string ->
  quick:bool ->
  jobs:(string * float option) list ->
  t

(** Open an existing queue (reads [queue.json]). *)
val load : dir:string -> (t, string) result

(** A successfully claimed job; pass it back to {!finish}. *)
type claimed

val claimed_job : claimed -> job

(** [try_claim t ~worker ~now ~lease_s] scans claimable jobs in
    submission order and atomically takes the first one, leasing it until
    [now + lease_s].  [None] when nothing is claimable (the queue may
    still hold outstanding claims — see {!drained}).  [worker] must be
    filename-safe ([A-Za-z0-9-]); {!sanitize_worker} enforces this. *)
val try_claim :
  t -> worker:string -> now:float -> lease_s:float -> claimed option

(** Write the completion marker ([Ok] or failed-with-message) and drop
    the claim.  Atomic (temp + rename); a duplicate completion from a
    recovered job overwrites with equivalent content. *)
val finish :
  t -> claimed -> wall_s:float -> result:(unit, string) result -> unit

(** Requeue every claim whose lease expired before [now]; returns how
    many moved.  Safe to call from any process at any time — each
    rename has one winner, and a zombie worker that later completes
    anyway just overwrites the same done marker. *)
val requeue_expired : t -> now:float -> int

type status = {
  todo : int;
  claimed : int;
  complete : int;  (** done markers, failed ones included *)
  total : int;  (** jobs at seed time *)
}

val status : t -> status

(** No claimable jobs and no outstanding claims: every job has reached
    a done marker (or the queue was seeded empty). *)
val drained : t -> bool

(** Units whose done marker records a worker-side failure; the
    coordinator recomputes these locally. *)
val failed_units : t -> string list

(** [worker_loop t ~worker ~now ~sleep ~lease_s ~poll_s ~run] claims and
    executes jobs until the queue drains, then returns the number of
    jobs this worker completed.  When nothing is claimable but claims
    are outstanding, it requeues expired leases and naps [poll_s] —
    picking up crashed peers' work.  Exceptions from [run] mark the job
    failed (not retried) and the loop continues. *)
val worker_loop :
  t ->
  worker:string ->
  now:(unit -> float) ->
  sleep:(float -> unit) ->
  lease_s:float ->
  poll_s:float ->
  run:(job -> unit) ->
  int

(** Map an arbitrary worker id (e.g. ["host.example.com:1234"]) to the
    filename-safe alphabet claims use. *)
val sanitize_worker : string -> string

(** Delete the queue directory and everything in it.  Foreign files in
    the directory are removed too — the directory is queue-owned by
    construction. *)
val delete : t -> unit

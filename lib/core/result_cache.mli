(** Disk-backed, content-addressed cache of experiment results, plus the
    per-job timing store that feeds the pool's cost-model (LPT)
    scheduling.

    {2 Keys}

    A cache key is the MD5 of a canonical JSON record of everything that
    determines the result bytes: the {e code fingerprint} (a digest of
    the running executable — any rebuild invalidates every entry), the
    experiment name, the [quick] flag and the experiment's parameter
    record ({!Experiments.params}).  Scheduler choice and [--jobs] are
    deliberately {e excluded}: the engine produces byte-identical tables
    under either scheduler at any worker count, so keying on them would
    split the cache without a correctness gain.

    {2 Self-healing}

    Entries store a {!Manifest.table_digest} per table.  A lookup parses
    the stored JSONL back into {!Table.t} values and re-digests them; any
    mismatch (truncation, hand edits, bit rot) discards the entry and
    reports a miss, so stale bytes are never trusted.

    {2 Timings}

    [dir/timings.json] records measured per-job wall seconds keyed by
    ["<fp8>:<label>#<index>"], where [fp8] is the first 8 hex chars of
    the code fingerprint that measured them — so estimates recorded by a
    stale binary stop matching after a rebuild instead of misordering
    the new binary's jobs.  The store is advisory and deliberately
    outside the content-addressed scheme: estimates only order execution
    (longest-processing-time-first), they never change results. *)

type t

(** Hex MD5 of the running executable ([Sys.executable_name]), hashed
    once per process. *)
val self_fingerprint : unit -> string

(** [create ~dir ()] opens (and creates if needed) a cache directory and
    loads its timing store.  [fingerprint] overrides the executable
    digest — tests use this to simulate a code change. *)
val create : ?fingerprint:string -> dir:string -> unit -> t

val dir : t -> string
val fingerprint : t -> string

(** Hits/misses counted by {!lookup} over this instance's lifetime. *)
val hits : t -> int

val misses : t -> int

(** Content-addressed key for one experiment invocation. *)
val key :
  t ->
  experiment:string ->
  quick:bool ->
  params:(string * Engine.Json.t) list ->
  string

(** [lookup t ~key] returns the stored tables after verifying every
    per-table digest; a corrupt or truncated entry is deleted and
    reported as a miss. *)
val lookup : t -> key:string -> Table.t list option

(** [store t ~key ~experiment ~quick tables] (over)writes the entry
    atomically (write to a temp file, then rename). *)
val store :
  t -> key:string -> experiment:string -> quick:bool -> Table.t list -> unit

(** {2 Timing feedback} *)

(** Last measured wall seconds for a job key, if any. *)
val estimate : t -> string -> float option

(** Record a measured wall time (non-finite or negative values are
    ignored).  Safe to call from worker domains. *)
val record : t -> string -> float -> unit

(** [timing_sum t ~label] sums every recorded job timing of that label's
    namespace {e for this cache's fingerprint} — the total measured wall
    time of one experiment unit, used by the process backend to seed its
    work queue in LPT order.  [None] when no job of the label has a
    measurement (a rebuild intentionally loses coverage: a stale
    binary's numbers must not order the new binary's jobs). *)
val timing_sum : t -> label:string -> float option

(** Persist the timing store to [dir/timings.json] (sorted keys,
    deterministic bytes for a given content).  The on-disk file is
    re-read and merged first — this instance's entries win on conflict —
    so concurrent runs sharing a cache dir don't clobber each other's
    measurements; the write itself is atomic (unique temp + rename). *)
val save_timings : t -> unit

(** {2 Scopes}

    A scope is the job-timing namespace of one experiment run: batch
    submissions allocate contiguous key blocks ["<fp8>:<label>#<i>"], so
    a given experiment's jobs keep stable keys across runs of the same
    binary. *)

type scope

(** [scope t ~label] starts a namespace; [now] supplies the wall clock
    used by callers to measure job durations (defaults to [Sys.time] so
    the core library stays free of a unix dependency). *)
val scope : ?now:(unit -> float) -> t -> label:string -> scope

val scope_cache : scope -> t
val scope_now : scope -> unit -> float

(** Allocate [n] contiguous job keys. *)
val alloc_keys : scope -> int -> string list

(** {2 Directory maintenance} *)

type dir_stats = {
  entries : int;  (** number of [.entry] files *)
  entry_bytes : int;  (** their total size *)
  timing_entries : int;  (** recorded job timings, any fingerprint *)
  timing_entries_self : int;
      (** timings usable by [fingerprint] — the LPT coverage this binary
          actually gets (0 when no fingerprint was supplied) *)
}

(** Inspect a cache directory without opening it as a cache.  A missing
    directory reads as empty.  [fingerprint] (e.g. {!self_fingerprint})
    scopes the timing-coverage count. *)
val stats : ?fingerprint:string -> dir:string -> unit -> dir_stats

type prune_stats = { pruned : int; pruned_bytes : int; kept : int }

(** [prune ~dir ~older_than_s ~now ~mtime] deletes cache entries (and
    stranded [.tmp] files) whose modification time is more than
    [older_than_s] seconds before [now], bounding long-lived shared
    cache directories.  [mtime] supplies per-path modification times in
    the same clock as [now] (the CLI passes [Unix.stat]; the core
    library stays unix-free); paths it cannot stat are kept.  The
    timing store and foreign files are never touched. *)
val prune :
  dir:string ->
  older_than_s:float ->
  now:float ->
  mtime:(string -> float option) ->
  prune_stats

(** Delete every entry and the timing store.  Leaves foreign files (and
    the directory itself) alone. *)
val clear : dir:string -> unit

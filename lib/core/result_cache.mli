(** Disk-backed, content-addressed cache of experiment results.  The
    cache writes nothing into its directory but [.entry] files, one per
    experiment unit (the process backend keeps its work queues there
    too, see {!Workqueue}).

    {2 Keys}

    A cache key is the MD5 of a canonical JSON record of everything that
    determines the result bytes: the {e code fingerprint} (a digest of
    the running executable — any rebuild invalidates every entry), the
    experiment name, the [quick] flag and the experiment's parameter
    record ({!Experiments.params}).  [--jobs] and the backend are
    deliberately {e excluded}: the engine produces byte-identical tables
    at any worker count, so keying on them would split the cache without
    a correctness gain.

    {2 Storage and self-healing}

    An entry is one minified JSON document (schema
    [slowcc-result-cache/2]) holding every table's id, title, columns,
    notes, rows (arrays of the exact cell strings) and
    {!Manifest.table_digest}.  A lookup parses it back into {!Table.t}
    values and re-digests them; a parse error, a wrong shape or schema tag
    or a digest mismatch (truncation, hand edits, bit rot) discards the
    entry and reports a miss, so stale bytes are never trusted. *)

type t

(** Hex MD5 of the running executable ([Sys.executable_name]), hashed
    once per process. *)
val self_fingerprint : unit -> string

(** [create ~dir ()] opens (and creates if needed) a cache directory.
    [fingerprint] overrides the executable digest — tests use this to
    simulate a code change. *)
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

(** Whether an entry exists under [key]; unlike {!lookup} it neither
    verifies nor counts it. *)
val mem : t -> key:string -> bool

(** [lookup t ~key] returns the stored tables after verifying every
    per-table digest; a corrupt or truncated entry is deleted and
    reported as a miss. *)
val lookup : t -> key:string -> Table.t list option

(** [store t ~key ~experiment ~quick tables] (over)writes the entry
    atomically (write to a temp file, then rename). *)
val store :
  t -> key:string -> experiment:string -> quick:bool -> Table.t list -> unit

(** {2 Directory maintenance} *)

type dir_stats = {
  entries : int;  (** number of [.entry] files *)
  entry_bytes : int;  (** their total size *)
}

(** Inspect a cache directory without opening it as a cache.  A missing
    directory reads as empty. *)
val stats : dir:string -> dir_stats

type prune_stats = { pruned : int; pruned_bytes : int; kept : int }

(** [prune ~dir ~older_than_s ~now ~mtime] deletes cache entries (and
    stranded [.tmp] files) whose modification time is more than
    [older_than_s] seconds before [now], bounding long-lived shared
    cache directories.  [mtime] supplies per-path modification times in
    the same clock as [now] (the CLI passes [Unix.stat]; the core
    library stays unix-free); paths it cannot stat are kept.  Foreign
    files are never touched. *)
val prune :
  dir:string ->
  older_than_s:float ->
  now:float ->
  mtime:(string -> float option) ->
  prune_stats

(** Delete every entry.  Leaves foreign files (and the directory itself)
    alone. *)
val clear : dir:string -> unit

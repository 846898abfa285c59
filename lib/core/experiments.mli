(** The paper's evaluation as a registry of experiments.

    Each experiment runs the corresponding scenario(s) and renders
    {!Table.t}s whose series mirror what the figure plots.  [quick]
    shrinks parameter sweeps and durations for smoke testing; the shapes
    survive but absolute values get noisier.

    Figures 1 and 2 of the paper are illustrative diagrams with no data.
    Figure pairs sharing simulations are one unit of computation that
    answers two ids (4+5, 14+15): either id runs the unit and returns
    both tables.  The id ["all"] runs every unit in figure order
    (ablations last).

    Every sweep is a list of closed, independently-seeded simulation jobs;
    passing [pool] fans the jobs out across that pool's worker domains
    (see {!Engine.Pool}).  Results are reassembled in deterministic order,
    so each table is bit-identical for any worker count. *)

(** Experiment ids in figure order, each second id of a figure pair right
    after its unit's.  ["all"] is not listed. *)
val names : string list

(** Units of computation for the full suite: {!names} minus the second
    id of each figure pair (fig5, fig15).  These are the jobs of the
    process backend — one work-queue entry, and one cache entry, per
    unit. *)
val all_units : string list

(** The units an id runs (the one unit that answers it, {!all_units}
    for ["all"]) that have no entry in [cache], or [None] for an unknown
    id.  These are the jobs of a process-backend sweep; an entry that
    exists is verified later, when {!run_cached} reads it. *)
val uncached_units :
  quick:bool -> Result_cache.t -> string -> string list option

(** Scenario parameters recorded in a run manifest for the named
    experiment (empty for unknown names and parameter-free tables).  The
    record is part of the result-cache key, so any change to it forces a
    re-simulation.  For ["all"] the record embeds one object per id of
    {!names}, keeping provenance complete in combined manifests. *)
val params : ?quick:bool -> string -> (string * Engine.Json.t) list

(** Run an experiment by id ("fig3" ... "fig20", "ablation-...", "all"),
    one unit at a time; [None] for an unknown id.  With [cache], a hit
    replays the unit's tables from disk (digest-verified) and a miss runs
    the unit and stores them.  An id and the unit that answers it share
    one cache entry.  [stream] is called on each table as its unit
    finishes.  [now] is ignored: nothing here is timed.  It stays in the
    signature because the benchmark's sweep workloads pass it. *)
val run_cached :
  ?stream:(Table.t -> unit) ->
  ?quick:bool ->
  ?pool:Engine.Pool.t ->
  ?cache:Result_cache.t ->
  ?now:(unit -> float) ->
  string ->
  Table.t list option

(** [run_to_dir ~dir ~jobs name] runs the experiment as {!run_cached}
    does and writes its tables (per [emit], default [Both]) plus
    [dir/manifest.json] under the id as given; returns the manifest path
    and the tables, or [None] for an unknown name.  [jobs] is recorded in
    the manifest's timing section only — it does not create a pool; pass
    [pool] for parallel sweeps.  [now] supplies the wall clock for the
    timing section (defaults to [Sys.time]).  When [cache] is given the
    timing section also records this run's cache hits/misses and the code
    fingerprint.  [backend], when given, is recorded in the timing
    section as the pool backend that executed the sweep. *)
val run_to_dir :
  ?stream:(Table.t -> unit) ->
  ?quick:bool ->
  ?pool:Engine.Pool.t ->
  ?cache:Result_cache.t ->
  ?backend:string ->
  ?emit:Manifest.emit ->
  ?now:(unit -> float) ->
  dir:string ->
  jobs:int ->
  string ->
  (string * Table.t list) option

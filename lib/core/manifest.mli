(** Run manifests: a machine-readable record of what an experiment run
    produced.  Each run directory gets a [manifest.json] describing the
    experiment, its parameters and per-table content digests, plus the
    tables themselves as CSV and/or JSONL.

    The manifest separates the {e run} section (what was computed — must
    be byte-identical at any [--jobs N]) from the {e timing} section
    (wall-clock and worker count, which legitimately vary).  The
    top-level [digest] field is the MD5 of the serialized run section. *)

type emit = Csv | Jsonl | Both

val emit_to_string : emit -> string

(** MD5 hex digest over a table's id, title, columns, rows and notes,
    with length-prefixed fields so distinct tables cannot collide by
    concatenation. *)
val table_digest : Table.t -> string

(** The digested portion of the manifest.  Exposed so tests can compare
    the exact bytes across worker counts. *)
val run_section :
  experiment:string ->
  quick:bool ->
  params:(string * Engine.Json.t) list ->
  tables:Table.t list ->
  Engine.Json.t

(** Full manifest document as a string (trailing newline included).
    [cache], when a result cache served the run, is [(hits, misses,
    fingerprint)]; it is recorded in the (non-digested) timing section —
    a verified hit reproduces the exact bytes a fresh simulation would,
    so cache state is engine configuration, not experiment identity.
    [backend] likewise records which pool backend executed the sweep
    (["domain"] or ["proc"]) in the timing section; both backends produce
    identical table bytes, so it never enters the digest. *)
val render :
  ?cache:int * int * string ->
  ?backend:string ->
  experiment:string ->
  quick:bool ->
  params:(string * Engine.Json.t) list ->
  emit:emit ->
  jobs:int ->
  wall_s:float ->
  tables:Table.t list ->
  unit ->
  string

(** [write ~dir ... tables] saves every table (per [emit]) plus
    [dir/manifest.json]; returns the manifest path. *)
val write :
  ?cache:int * int * string ->
  ?backend:string ->
  dir:string ->
  experiment:string ->
  quick:bool ->
  params:(string * Engine.Json.t) list ->
  emit:emit ->
  jobs:int ->
  wall_s:float ->
  Table.t list ->
  string

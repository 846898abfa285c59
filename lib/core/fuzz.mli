(** Differential scenario fuzzer.

    Generates random small scenarios on a {!Netsim.Dumbbell} of one to
    three hops and runs each one three ways — audited baseline,
    unaudited ([audit=off]), and inside a worker domain of a
    {!Engine.Pool} — checking that all legs produce byte-identical
    end-state traces and that no {!Engine.Audit} invariant fires.
    Failing scenarios are greedily shrunk to a minimal reproducer and can
    be saved as replayable JSON manifests. *)

(** A flow between hosts attached at routers [src_site] and [dst_site]:
    distinct, in [0 .. hops]. *)
type flow_spec = { proto : Protocol.t; src_site : int; dst_site : int }

type scenario = {
  seed : int;  (** drives the in-run RNG (RED) and, xored, the generator *)
  hops : int;  (** bottleneck hops, >= 1; 1 is the paper's dumbbell *)
  queue : Netsim.Dumbbell.queue_kind;
  bandwidth : float;  (** bottleneck bits/s *)
  rtt : float;  (** end-to-end two-way propagation, seconds *)
  duration : float;  (** simulated seconds *)
  flows : flow_spec list;
}

(** Deterministic scenario from a seed.  [quick] bounds duration and flow
    count for smoke campaigns. *)
val generate : quick:bool -> int -> scenario

val describe : scenario -> string

(** [check ?pool sc] is [None] when all legs agree and no invariant
    fires, or [Some failure] describing the first violation or
    divergence (with the axis and both digests).  The jobs leg only runs
    when [pool] has more than one worker. *)
val check : ?pool:Engine.Pool.t -> scenario -> string option

(** Greedily simplify a failing scenario (collapse to one hop keeping
    each flow's direction, drop flows, shorten, swap RED for droptail)
    while it keeps failing; returns the smallest scenario reached and its
    failure message. *)
val shrink :
  ?pool:Engine.Pool.t -> scenario -> string -> scenario * string

(** Round-trip for replayable reproducers (schema
    ["slowcc-fuzz-repro/2"]). *)
val scenario_to_json : scenario -> Engine.Json.t

(** [Error] for a wrong schema, a missing field, an unknown queue or
    protocol, [hops < 1], a site outside [0 .. hops] or a flow's two sites
    equal, and a [bandwidth], [rtt] or [duration] that is not finite and
    positive; so a loaded scenario always builds. *)
val scenario_of_json : Engine.Json.t -> (scenario, string) result

(** Write [sc] (plus the failure message) under [dir] as
    [repro-seed<N>.json]; returns the path. *)
val save_repro : dir:string -> failure:string -> scenario -> string

val load_repro : string -> (scenario, string) result

type failure = {
  scenario : scenario;  (** as generated *)
  first_failure : string;
  shrunk : scenario;
  shrunk_failure : string;
  repro_path : string option;
}

type report = {
  seeds_run : int;
  failures : failure list;
  soa_failures : (int * string) list;
      (** seeds where {!Manyflow.fuzz_check} found one n-slot window
          engine diverging from n one-slot engines *)
}

(** Run seeds [0 .. seeds-1].  Each seed runs both the scenario
    differential legs and the SoA-vs-object equivalence leg.  [out_dir]
    enables reproducer dumps; [log] receives human-readable progress
    lines. *)
val run_seeds :
  ?pool:Engine.Pool.t ->
  ?quick:bool ->
  ?out_dir:string ->
  ?log:(string -> unit) ->
  seeds:int ->
  unit ->
  report

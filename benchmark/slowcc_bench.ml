(* slowcc_bench: the end-to-end and per-layer benchmark of the simulator.

     dune exec benchmark/slowcc_bench.exe -- --workload W --seed S \
       [--seconds N] [--trace 0|1] [--out FILE] [--spans FILE] \
       [--compare BASE.json]
     dune exec benchmark/slowcc_bench.exe -- --smoke

   One invocation runs the named workloads (all five when none is named)
   in a closed loop: one caller runs a workload's units one after
   another, pass after pass, until [--seconds] of measuring is used up.
   It prints every metric as "workload metric value unit", checks the
   outputs, and ends with one JSON line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 untraced and traced passes alternate and
   the metrics are the per-layer ones.  BENCHMARK.json at the repository
   root declares both sets, their units and regression bounds; see
   benchmark/README.md. *)

open Slowcc

let workload_names =
  [ "paper-dynamics"; "zoo-paced"; "manyflow-1e5"; "sweep-cold"; "sweep-warm" ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sum = List.fold_left ( +. ) 0.
let median xs = Engine.Stats.percentile 0.5 xs

(* Quartiles by the exclusive method (Python's statistics.quantiles). *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length d and m = Array.length d + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
  in
  (q 1, q 3)

(* Run-to-run spread of a metric's per-pass samples, as a share of their
   median: the interquartile range from four samples on, the full range
   below that. *)
let spread = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = median xs in
    let lo, hi =
      if List.length xs >= 4 then quartiles xs
      else (List.fold_left Float.min infinity xs, List.fold_left Float.max neg_infinity xs)
    in
    if m = 0. then 0. else (hi -. lo) /. Float.abs m

let rate num den = if den > 0. then num /. den else 0.

(* Megabytes in one heap word. *)
let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type instance = {
  setup_reps : int;  (** set-up repetitions before each untraced pass *)
  setup : unit -> float;  (** one set-up repetition, host seconds *)
  pass : traced:bool -> Tally.pass;
  min_passes : int;  (** passes (pairs, when traced) run whatever the budget *)
  checks : int * string list;  (** once-per-run checks: attempted, problems *)
  probe : unit -> Tally.sums * string list;  (** traced runs: direct layer calls *)
  simulated : bool;
}

let work_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir work =
  incr work_counter;
  Filename.concat work (string_of_int !work_counter)

let no_probe () = (Tally.sums (), [])

let sim_pass ~seed units ~traced =
  let sums = Tally.sums () in
  let qdelay =
    if traced then
      Some (Engine.Reservoir.create ~rng:(Engine.Rng.create ~seed) ~k:20_000)
    else None
  in
  let results =
    List.map
      (fun (u : Sim_units.sim_unit) ->
        (* Untimed: each unit starts from a collected heap, so its time
           does not depend on the garbage the units before it left. *)
        Gc.full_major ();
        Spans.with_span "unit" (fun () ->
            match Tally.guard u.label (fun () -> u.run ~traced ~qdelay sums) with
            | Ok (s, v, p) -> (s, (u.label, v), p)
            | Error m -> (0., (u.label, "error"), [ m ])))
      units
  in
  Option.iter
    (fun r ->
      Tally.add sums "netsim.qdelay_p50_s"
        (median (Engine.Reservoir.to_list r)))
    qdelay;
  let unit_s = List.map (fun (s, _, _) -> s) results in
  {
    Tally.wall_s = sum unit_s;
    unit_s;
    vectors = List.map (fun (_, v, _) -> v) results;
    problems = List.concat_map (fun (_, _, p) -> p) results;
    sums;
  }

(* Passes an untraced run makes whatever the budget: enough for a
   per-unit median to discard one noise burst. *)
let min_passes ~smoke = if smoke then 1 else 3

(* Rounds of a sweep-warm pass: each serves every unit once. *)
let warm_reps = 20

let sim_instance ~seed ~smoke ?(checks = (0, [])) ?(setup_reps = 17) units =
  {
    setup_reps;
    setup =
      (fun () ->
        sum (List.map (fun (u : Sim_units.sim_unit) -> u.build_only ()) units));
    pass = sim_pass ~seed units;
    min_passes = min_passes ~smoke;
    checks;
    probe = no_probe;
    simulated = true;
  }

(* Fill a sweep-warm cache at [dir] in a child process running this
   executable with --fill-cache; see [Sweep.fill]. *)
let fill_in_child ~dir units =
  Table.ensure_dir dir;
  Out_channel.with_open_bin (Sweep.units_file dir) (fun oc ->
      List.iter (fun u -> output_string oc (u ^ "\n")) units);
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--fill-cache"; dir |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> []
  | Unix.WEXITED c -> [ Printf.sprintf "fill: the cache fill exited with code %d" c ]
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    [ Printf.sprintf "fill: the cache fill was stopped by signal %d" s ]

let prepare ~work ~seed ~smoke name =
  let rng = Engine.Rng.create ~seed in
  let object_units ~horizon cells =
    List.mapi Sim_units.object_unit (Sim_units.specs rng ~horizon cells)
  in
  match name with
  | "paper-dynamics" ->
    let protocols, bandwidths, horizon =
      if smoke then ([ Protocol.tcp ~gamma:2. ], [ 1.5e6 ], 2.)
      else (Sim_units.paper_protocols, Sim_units.bandwidths, 40.)
    in
    sim_instance ~seed ~smoke
      (object_units ~horizon (Sim_units.paper_cells ~protocols ~bandwidths))
  | "zoo-paced" ->
    let protocols, bandwidths, horizon =
      if smoke then ([ Protocol.bbr ], [ 1.5e6 ], 2.)
      else (Sim_units.zoo_protocols, Sim_units.bandwidths, 40.)
    in
    sim_instance ~seed ~smoke
      (object_units ~horizon (Sim_units.zoo_cells ~protocols ~bandwidths))
  | "manyflow-1e5" ->
    let n, duration, cells =
      if smoke then (1_000, 0.5, [ (2., true); (8., false) ])
      else (100_000, 3., [ (2., true); (8., false) ])
    in
    (* The SoA engine must still match per-object senders byte for byte. *)
    let fuzz_seeds = [ Engine.Rng.int rng 1_000_000; Engine.Rng.int rng 1_000_000 ] in
    let fuzz_problems =
      List.filter_map
        (fun s ->
          Option.map
            (fun m -> Printf.sprintf "fuzz-%d: %s" s m)
            (Manyflow.fuzz_check ~quick:true s))
        fuzz_seeds
    in
    sim_instance ~seed ~smoke ~setup_reps:5
      ~checks:(List.length fuzz_seeds, fuzz_problems)
      (Sim_units.manyflow_units rng ~n ~duration ~cells)
  | "sweep-cold" ->
    let units = Sweep.units ~smoke in
    let last = ref [] in
    {
      setup_reps = 17;
      setup =
        (fun () ->
          let dir = fresh_dir work in
          let _, s = Spans.timed (fun () -> Sweep.open_cold ~dir ~units) in
          rm_rf dir;
          s);
      pass =
        (fun ~traced:_ ->
          let dir = fresh_dir work and out = fresh_dir work in
          let p, tables = Sweep.cold_pass ~dir ~out ~units in
          last := tables;
          rm_rf dir;
          rm_rf out;
          p);
      min_passes = min_passes ~smoke;
      checks = (0, []);
      probe = (fun () -> Sweep.probe ~dir:(fresh_dir work) !last);
      simulated = false;
    }
  | "sweep-warm" ->
    let units = Sweep.units ~smoke in
    let dir = fresh_dir work and out = fresh_dir work in
    let fill_problems = fill_in_child ~dir units in
    let expected = if fill_problems = [] then Sweep.read_expected dir else [] in
    let cache = Result_cache.create ~dir () in
    let last = ref [] in
    {
      setup_reps = 11;
      setup = (fun () -> snd (Spans.timed (fun () -> Result_cache.create ~dir ())));
      pass =
        (fun ~traced:_ ->
          let p, tables =
            Sweep.warm_pass ~cache ~out ~units ~expected
              ~rounds:(if smoke then 1 else warm_reps)
          in
          last := tables;
          Tally.add_live p.Tally.sums;
          p);
      min_passes = min_passes ~smoke;
      checks = (1, fill_problems);
      probe = (fun () -> Sweep.probe ~dir:(fresh_dir work) !last);
      simulated = false;
    }
  | _ -> invalid_arg name

(* ------------------------------------------------------------------ *)
(* Measuring                                                           *)
(* ------------------------------------------------------------------ *)

type run = {
  name : string;
  traced : bool;
  setup : float list;
  u : Tally.pass list;  (** untraced passes, in order *)
  t : Tally.pass list;  (** traced passes, in order *)
  probes : Tally.sums;
  attempted : int;
  failed : int;
  problems : string list;
  digest : string;
  live_heap_mb : float;
  peak_heap_mb : float;
  spans : Spans.span list;  (** traced runs: every span recorded *)
}

exception Meaningless of string

(* Every pass must reproduce the first untraced pass's count vectors.
   A pass that does keeps the first pass's vectors instead of its own, so
   that thousands of short passes do not pile up copies in the heap the
   run reports. *)
let check_vectors ~first p =
  match
    List.concat
      (List.map2
         (fun (label, v0) (_, v) ->
           if v = v0 then [] else [ label ^ ": count vector differs from the first pass" ])
         first.Tally.vectors p.Tally.vectors)
  with
  | [] -> { p with Tally.vectors = first.Tally.vectors }
  | bad -> { p with Tally.problems = p.Tally.problems @ bad }

let measure ~work ~seed ~smoke ~seconds ~traced name =
  let inst = prepare ~work ~seed ~smoke name in
  (* Every set-up repetition and every pass starts from a collected heap,
     untimed, so that no run pays for garbage an earlier phase left: the
     major-collection work still owed when a phase starts otherwise moves
     its time by up to 50% from one process to the next.  Set-up
     repetitions run before every untraced pass, so that their median
     spans the run rather than its first moments. *)
  let setup = ref [] in
  let set_up () =
    for _ = 1 to inst.setup_reps do
      Gc.full_major ();
      setup := inst.setup () :: !setup
    done
  in
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let traced_pass () =
    Spans.recording := true;
    Fun.protect
      ~finally:(fun () -> Spans.recording := false)
      (fun () ->
        Spans.with_span name (fun () ->
            Spans.with_span "pass" (fun () -> inst.pass ~traced:true)))
  in
  (* A traced run alternates untraced and traced passes, so it needs
     fewer pairs to time both. *)
  let min_n = if traced then min 2 inst.min_passes else inst.min_passes in
  (* Heap numbers come from the minimum passes alone: later passes repeat
     the same work, and only the benchmark's own records would grow the
     heap. *)
  let peak_heap_mb = ref 0. in
  let rec loop first us ts n =
    let t0 = Spans.now_ns () in
    set_up ();
    Gc.full_major ();
    let u = inst.pass ~traced:false in
    let first = Option.value first ~default:u in
    let u = if u == first then u else check_vectors ~first u in
    let t =
      if traced then begin
        Gc.full_major ();
        [ check_vectors ~first (traced_pass ()) ]
      end
      else []
    in
    if n + 1 = min_n then
      peak_heap_mb := float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb;
    let cost = Spans.now_ns () - t0 in
    let us = u :: us and ts = t @ ts in
    if n + 1 >= min_n && Spans.now_ns () + cost > deadline then
      (List.rev us, List.rev ts)
    else loop (Some first) us ts (n + 1)
  in
  let u, t = loop None [] [] 0 in
  let first = List.hd u in
  let live_heap_mb =
    let early = List.filteri (fun i _ -> i < min_n) u in
    let get k = sum (List.map (fun p -> Tally.get p.Tally.sums k) early) in
    rate (get "heap.live_words") (get "heap.samples") *. word_mb
  in
  let probes, probe_problems =
    if traced then
      Fun.protect
        ~finally:(fun () -> Spans.recording := false)
        (fun () ->
          Spans.recording := true;
          Spans.with_span "probe" inst.probe)
    else no_probe ()
  in
  let passes = u @ t in
  if not smoke then begin
    if inst.simulated then
      List.iter
        (fun p ->
          if p.Tally.wall_s < 2. then
            raise
              (Meaningless
                 (Printf.sprintf "a timed pass took %.3f s, under the 2 s floor"
                    p.Tally.wall_s)))
        u;
    if name = "sweep-warm" then
      List.iter
        (fun p ->
          let served = Tally.get p.Tally.sums "core.run_to_dir" in
          let units = List.sort_uniq compare (List.map fst p.Tally.vectors) in
          let per_unit = served /. float_of_int (List.length units) in
          if per_unit < float_of_int warm_reps then
            raise
              (Meaningless
                 (Printf.sprintf "a warm pass served each unit %g times, under %d"
                    per_unit warm_reps)))
        u
  end;
  if inst.simulated
     && List.exists
          (fun p ->
            Tally.get p.Tally.sums "engine.events" = 0.
            || Tally.get p.Tally.sums "netsim.pkts" = 0.)
          u
  then raise (Meaningless "a pass simulated zero events or zero packets");
  let extra_attempted, extra_problems = inst.checks in
  let problems =
    extra_problems @ probe_problems @ List.concat_map (fun p -> p.Tally.problems) passes
  in
  {
    name;
    traced;
    setup = !setup;
    u;
    t;
    probes;
    attempted = extra_attempted + List.fold_left (fun a p -> a + Tally.attempted p) 0 passes;
    failed =
      List.length extra_problems
      + (if probe_problems = [] then 0 else 1)
      + List.fold_left (fun a p -> a + Tally.failed p) 0 passes;
    problems;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "\n" (List.map (fun (l, v) -> l ^ "=" ^ v) first.Tally.vectors)));
    live_heap_mb;
    peak_heap_mb = !peak_heap_mb;
    spans = Spans.drain ();
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { value : float; unit_ : string; samples : float list }

let total passes key = sum (List.map (fun p -> Tally.get p.Tally.sums key) passes)
let first passes key = match passes with p :: _ -> Tally.get p.Tally.sums key | [] -> 0.
let walls passes = List.map (fun p -> p.Tally.wall_s) passes
let unit_ms p = List.map (fun s -> s *. 1e3) p.Tally.unit_s

(* Each unit's median time across passes, in unit order: robust to a
   noise burst that hits one pass's unit. *)
let unit_medians passes =
  let per_pass = List.map (fun p -> Array.of_list p.Tally.unit_s) passes in
  let n = match per_pass with a :: _ -> Array.length a | [] -> 0 in
  List.init n (fun i -> median (List.map (fun a -> a.(i)) per_pass))

(* The wall time of one pass: the sum of the units' medians, plus the
   median time the passes spent outside their units. *)
let pass_wall passes =
  sum (unit_medians passes)
  +. median (List.map (fun p -> p.Tally.wall_s -. sum p.Tally.unit_s) passes)

(* End-to-end metrics, from the untraced passes. *)
let end_to_end r =
  let one unit_ v = { value = v; unit_; samples = [ v ] } in
  [
    ("setup_s", { value = median r.setup; unit_ = "s"; samples = r.setup });
    ("wall_s", { value = pass_wall r.u; unit_ = "s"; samples = walls r.u });
    ( "unit_ms_p50",
      {
        value = 1e3 *. median (unit_medians r.u);
        unit_ = "ms";
        samples = List.map (fun p -> median (unit_ms p)) r.u;
      } );
    ("live_heap_mb", one "MB" r.live_heap_mb);
  ]

(* Per-layer metrics.  Counts of exact traffic come from the first
   untraced pass; rates divide totals over all untraced passes; the
   queue, queue-delay and SoA-state numbers come from the traced passes.
   A layer the benchmark does not call on a workload reads 0. *)
let per_layer r =
  let u = r.u and t = r.t in
  let ratio passes num den = rate (total passes num) (total passes den) in
  let core_rate passes op = ratio passes ("core." ^ op) ("core." ^ op ^ "_s") in
  let probe_rate op =
    rate (Tally.get r.probes ("core." ^ op)) (Tally.get r.probes ("core." ^ op ^ "_s"))
  in
  [
    ("trace.overhead_frac", "ratio", rate (median (walls t)) (median (walls u)) -. 1.);
    ("engine.events", "count", first u "engine.events");
    ("engine.events_per_s", "1/s", ratio u "engine.events" "engine.run_s");
    ("engine.minor_words_per_event", "words", ratio u "engine.minor_words" "engine.events");
    ("engine.major_gcs", "count", median (List.map (fun p -> Tally.get p.Tally.sums "engine.major_gcs") u));
    ("netsim.bottleneck_pkts", "count", first u "netsim.pkts");
    ("netsim.drop_rate", "ratio", rate (first u "netsim.drops") (first u "netsim.arrivals"));
    ("netsim.events_per_pkt", "ratio", rate (first u "engine.events") (first u "netsim.pkts"));
    ("netsim.pkts_per_s", "pkt/s", rate (total u "netsim.pkts") (sum (walls u)));
    ("netsim.dumbbells_per_s", "1/s", ratio u "netsim.dumbbells" "netsim.dumbbell_s");
    ("netsim.queue.ops", "count", first t "netsim.queue.ops");
    ("netsim.queue.ops_per_s", "1/s", ratio t "netsim.queue.ops" "netsim.queue.s");
    ( "netsim.qdelay_ms_p50",
      "sim-ms",
      match t with
      | [] -> 0.
      | _ -> 1e3 *. median (List.map (fun p -> Tally.get p.Tally.sums "netsim.qdelay_p50_s") t) );
    ("cc.sent_pkts", "count", first u "cc.sent_pkts");
    ("cc.rtx_frac", "ratio", rate (first u "cc.rtx_pkts") (first u "cc.sent_pkts"));
    ("cc.timeouts", "count", first u "cc.timeouts");
    ("cc.spawns_per_s", "1/s", ratio u "cc.spawns" "cc.spawn_s");
    ("cc.soa.flows_built_per_s", "flow/s", ratio u "cc.soa.flows" "cc.soa.build_s");
    ("cc.soa.state_bytes_per_flow", "B", ratio t "cc.soa.state_bytes" "cc.soa.traced_flows");
    ("core.cache.stores_per_s", "1/s", probe_rate "cache.store");
    ("core.cache.lookups_per_s", "1/s", probe_rate "cache.lookup");
    ("core.table.digests_per_s", "1/s", probe_rate "table.digest");
    ("core.run_to_dir_per_s", "1/s", core_rate u "run_to_dir");
    ("core.workqueue.claims_per_s", "1/s", core_rate u "workqueue.claim");
    ("core.workqueue.finishes_per_s", "1/s", core_rate u "workqueue.finish");
    ( "core.runner_overhead_frac",
      "ratio",
      if total u "core.run_cached_s" > 0. then
        1. -. rate (total u "core.run_cached_s") (sum (walls u))
      else 0. );
    ( "core.cache.hit_ratio",
      "ratio",
      rate (total u "core.cache.hits")
        (total u "core.cache.hits" +. total u "core.cache.misses") );
  ]
  |> List.map (fun (name, unit_, v) -> (name, { value = v; unit_; samples = [ v ] }))

(* What the final line reports: end-to-end metrics untraced, per-layer
   metrics traced. *)
let reported r = if r.traced then per_layer r else end_to_end r

(* Shown but not gated: percentiles the sample supports, throughput, the
   failure share, and set-up parts. *)
let extras r =
  let all = List.concat_map unit_ms r.u in
  let n = List.length all in
  [
    ("unit_samples", float_of_int n, "count");
    ("passes", float_of_int (List.length r.u), "count");
    ("fail_frac", rate (float_of_int r.failed) (float_of_int r.attempted), "ratio");
    ("pass_build_s", median (List.map (fun p -> Tally.get p.Tally.sums "setup.build_s") r.u), "s");
    ("peak_heap_mb", r.peak_heap_mb, "MB");
  ]
  @ (if n >= 100 then [ ("unit_ms_p90", Engine.Stats.percentile 0.9 all, "ms") ] else [])
  @
  match r.t with
  | [] -> []
  | _ -> [ ("traced_wall_s", median (walls r.t), "s") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_of_run r =
  let open Engine.Json in
  Obj
    [
      ("name", String r.name);
      ("traced", Bool r.traced);
      ("passes", Int (List.length r.u));
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("digest", String r.digest);
      ( "metrics",
        Obj
          (List.map
             (fun (name, m) ->
               ( name,
                 Obj
                   [
                     ("value", Float m.value);
                     ("unit", String m.unit_);
                     ("n", Int (List.length m.samples));
                     ("spread", Float (spread m.samples));
                   ] ))
             (reported r)) );
      ("problems", List (List.map (fun p -> String p) r.problems));
    ]

(* [git rev-parse HEAD] in the current directory; "unknown" when git or
   the repository is missing. *)
let commit () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when out <> "" -> out
    | _ -> "unknown")

let stamp ~seed ~seconds ~traced =
  let open Engine.Json in
  Obj
    [
      ("seed", Int seed);
      ("seconds", Float seconds);
      ("trace", Bool traced);
      ("nproc", Int (Engine.Pool.default_jobs ()));
      ("ocaml", String Sys.ocaml_version);
      ("scheduler", String (Engine.Scheduler.to_string (Engine.Scheduler.get_default ())));
      ("ff", String (Engine.Fastforward.to_string (Engine.Fastforward.get_default ())));
      ("commit", String (commit ()));
    ]

let print_run r =
  let line name v unit_ = Printf.printf "%s %s %.6g %s\n" r.name name v unit_ in
  List.iter (fun (name, m) -> line name m.value m.unit_) (reported r);
  List.iter (fun (name, v, unit_) -> line name v unit_) (extras r);
  Printf.printf "%s digest %s md5\n" r.name r.digest;
  if r.traced then
    List.iter
      (fun (span, (n, ns)) ->
        Printf.printf "%s span.%s.self_ms %.6g ms (n=%d)\n" r.name span
          (float_of_int ns *. 1e-6) n)
      (Spans.self_times r.spans);
  List.iter (fun p -> Printf.printf "%s problem %s\n" r.name p) r.problems

(* The last line of standard output.  Metric names get a "workload/"
   prefix when more than one workload ran. *)
let result_line runs =
  let prefix r = match runs with [ _ ] -> "" | _ -> r.name ^ "/" in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, m) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" (prefix r ^ name)
              (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null")
              m.unit_)
          (reported r))
      runs
  in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 runs in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 runs in
  let finite =
    List.for_all (fun r -> List.for_all (fun (_, m) -> Float.is_finite m.value) (reported r)) runs
  in
  let correct = failed = 0 && finite in
  ( correct,
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct attempted failed (String.concat ", " metrics) )

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json and --compare                                        *)
(* ------------------------------------------------------------------ *)

let load_json path =
  match Engine.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let member_exn k j =
  match Engine.Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing field %S" k)

let as_list = function Engine.Json.List l -> l | _ -> failwith "expected a list"
let as_string = function Engine.Json.String s -> s | _ -> failwith "expected a string"

let as_float = function
  | Engine.Json.Float f -> f
  | Engine.Json.Int i -> float_of_int i
  | _ -> failwith "expected a number"

(* (name, unit, better, bound) of each declared metric. *)
let declared spec section =
  List.map
    (fun m ->
      ( as_string (member_exn "name" m),
        as_string (member_exn "unit" m),
        Option.fold ~none:"" ~some:as_string (Engine.Json.member "better" m),
        Option.fold ~none:0. ~some:as_float (Engine.Json.member "bound" m) ))
    (as_list (member_exn section spec))

(* Metrics whose value is an exact count of simulated behaviour: equal
   inputs must give equal values on any commit that keeps behaviour. *)
let exact =
  [
    "engine.events"; "netsim.bottleneck_pkts"; "netsim.drop_rate";
    "netsim.events_per_pkt"; "netsim.queue.ops"; "cc.sent_pkts"; "cc.rtx_frac";
    "cc.timeouts";
  ]

let compare_runs ~spec ~base current =
  let bounds = declared spec "end_to_end" in
  let find name j =
    List.find_opt
      (fun w -> as_string (member_exn "name" w) = name)
      (as_list (member_exn "workloads" j))
  in
  let metric w name =
    Option.map
      (fun m -> (as_float (member_exn "value" m), as_float (member_exn "spread" m)))
      (Engine.Json.member name (member_exn "metrics" w))
  in
  let seed j = as_float (member_exn "seed" (member_exn "stamp" j)) in
  if seed base <> seed current then
    print_endline "compare: the seeds differ, so exact counts and digests are not comparable";
  List.iter
    (fun w ->
      let name = as_string (member_exn "name" w) in
      match find name base with
      | None -> Printf.printf "compare %s: not in the base file\n" name
      | Some b ->
        Printf.printf "compare %s\n  %-30s %14s %14s %8s %6s  %s\n" name "metric" "base"
          "new" "delta" "bound" "verdict";
        let names =
          List.map fst
            (match member_exn "metrics" w with Engine.Json.Obj l -> l | _ -> [])
        in
        List.iter
          (fun m ->
            match (metric b m, metric w m) with
            | Some (bv, bs), Some (nv, ns) ->
              let delta = if bv = 0. then 0. else (nv -. bv) /. Float.abs bv in
              let verdict, bound =
                match List.find_opt (fun (n, _, _, _) -> n = m) bounds with
                | Some (_, _, better, bound) ->
                  let worse = if better = "lower" then delta else -.delta in
                  ( (if bs > bound || ns > bound then "unresolved"
                     else if worse > bound then "worse"
                     else if worse < -.bound then "better"
                     else "same"),
                    Printf.sprintf "%.2f" bound )
                | None ->
                  ((if List.mem m exact && bv <> nv then "CHANGED" else ""), "-")
              in
              Printf.printf "  %-30s %14.6g %14.6g %+7.1f%% %6s  %s\n" m bv nv
                (100. *. delta) bound verdict
            | _ -> ())
          names;
        let digest x = as_string (member_exn "digest" x) in
        Printf.printf "  digest %s\n"
          (if digest b = digest w then "same" else "CHANGED"))
    (as_list (member_exn "workloads" current))

(* ------------------------------------------------------------------ *)
(* Smoke mode                                                          *)
(* ------------------------------------------------------------------ *)

(* Tiny sizes, every workload untraced and traced: each declared metric
   is emitted with its declared unit, traced and untraced count vectors
   agree (checked inside every traced run), nothing fails, and the
   result line parses. *)
let smoke ~work ~spec =
  let bad = ref [] in
  let complain fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  let names = List.map (fun w -> as_string (member_exn "name" w)) (as_list (member_exn "workloads" spec)) in
  if names <> workload_names then complain "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun name ->
      List.iter
        (fun traced ->
          let r = measure ~work ~seed:7 ~smoke:true ~seconds:0. ~traced name in
          let section = if traced then "per_layer" else "end_to_end" in
          let emitted = reported r in
          List.iter
            (fun (m, unit_, _, _) ->
              match List.assoc_opt m emitted with
              | Some e when e.unit_ = unit_ -> ()
              | Some e -> complain "%s %s: unit %s, declared %s" name m e.unit_ unit_
              | None -> complain "%s: %s not emitted" name m)
            (declared spec section);
          if List.length emitted <> List.length (declared spec section) then
            complain "%s: emits metrics BENCHMARK.json does not declare" name;
          if r.failed <> 0 then
            complain "%s: %d failed: %s" name r.failed (String.concat "; " r.problems);
          let _, line = result_line [ r ] in
          match Engine.Json.of_string line with
          | Ok j when Engine.Json.member "metrics" j <> None -> ()
          | _ -> complain "%s: result line does not parse: %s" name line)
        [ false; true ])
    workload_names;
  match !bad with
  | [] ->
    print_endline "smoke ok";
    0
  | l ->
    List.iter prerr_endline (List.rev l);
    1

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Each of these changes what is measured; only the defaults are allowed. *)
let env_guard () =
  let allowed =
    [
      ("SLOWCC_FF", fun v -> Engine.Fastforward.of_string v = Some Engine.Fastforward.Off);
      ("SLOWCC_SCHED", fun v -> Engine.Scheduler.of_string v = Some Engine.Scheduler.Calendar);
      ("SLOWCC_GC", fun _ -> false);
      ("SLOWCC_AUDIT", fun v -> List.mem (String.lowercase_ascii v) [ "off"; "0" ]);
    ]
  in
  List.iter
    (fun (var, ok) ->
      match Sys.getenv_opt var with
      | Some v when String.trim v <> "" && not (ok (String.trim v)) ->
        Printf.eprintf
          "slowcc_bench: %s=%s changes what is measured; unset it to run the \
           benchmark\n"
          var v;
        exit 2
      | _ -> ())
    allowed

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let out = ref None and spans = ref None and base = ref None and smoke_mode = ref false in
  let fill_dir = ref None in
  let spec_args =
    [
      ("--workload", Arg.String (fun w -> workloads := w :: !workloads),
       "W  run workload W (repeatable; default: all)");
      ("--seed", Arg.Set_int seed, "S  seed every input is drawn from");
      ("--seconds", Arg.Set_float seconds, "N  measuring budget per workload");
      ("--trace", Arg.Set_int trace, "0|1  1: alternate traced passes, report per-layer metrics");
      ("--out", Arg.String (fun f -> out := Some f), "FILE  write the result JSON");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE  write the traced spans as JSONL");
      ("--compare", Arg.String (fun f -> base := Some f), "BASE  compare with a result JSON");
      ("--smoke", Arg.Set smoke_mode, " tiny sizes, check the benchmark itself");
      ("--fill-cache", Arg.String (fun d -> fill_dir := Some d),
       "DIR  (internal) fill a sweep-warm cache in DIR");
    ]
  in
  let usage = "slowcc_bench [--workload W]... --seed S [--seconds N] [--trace 0|1]" in
  Arg.parse spec_args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  env_guard ();
  Engine.Pool.tune_gc ();
  Option.iter
    (fun dir ->
      match Sweep.fill ~dir with
      | [] -> exit 0
      | problems ->
        List.iter prerr_endline problems;
        exit 1)
    !fill_dir;
  let names = match List.rev !workloads with [] -> workload_names | l -> l in
  List.iter
    (fun w ->
      if not (List.mem w workload_names) then begin
        Printf.eprintf "slowcc_bench: unknown workload %S (known: %s)\n" w
          (String.concat ", " workload_names);
        exit 2
      end)
    names;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "slowcc_bench: --trace takes 0 or 1";
    exit 2
  end;
  let work = Filename.concat ".bench_work" (string_of_int (Unix.getpid ())) in
  Table.ensure_dir work;
  at_exit (fun () ->
      rm_rf work;
      try Sys.rmdir ".bench_work" with Sys_error _ -> ());
  if !smoke_mode then exit (smoke ~work ~spec:(load_json "BENCHMARK.json"));
  let traced = !trace = 1 in
  let runs =
    List.map
      (fun name ->
        let r =
          try measure ~work ~seed:!seed ~smoke:false ~seconds:!seconds ~traced name
          with Meaningless why ->
            Printf.eprintf "slowcc_bench: %s: %s; refusing to report it\n" name why;
            exit 3
        in
        print_run r;
        r)
      names
  in
  Option.iter
    (fun f -> Spans.write_jsonl f (List.concat_map (fun r -> r.spans) runs))
    !spans;
  (* Built only when asked for: the stamp runs git. *)
  let result =
    lazy
      (Engine.Json.Obj
         [
           ("schema", Engine.Json.String "slowcc-bench/1");
           ("stamp", stamp ~seed:!seed ~seconds:!seconds ~traced);
           ("workloads", Engine.Json.List (List.map json_of_run runs));
         ])
  in
  Option.iter
    (fun f ->
      Out_channel.with_open_bin f (fun oc -> Engine.Json.to_channel oc (Lazy.force result)))
    !out;
  (* The current run goes through the same JSON text as the base file, so
     that equal values compare equal to the last bit. *)
  Option.iter
    (fun b ->
      match Engine.Json.of_string (Engine.Json.to_string (Lazy.force result)) with
      | Ok current ->
        compare_runs ~spec:(load_json "BENCHMARK.json") ~base:(load_json b) current
      | Error e -> failwith e)
    !base;
  let correct, line = result_line runs in
  print_endline line;
  exit (if correct then 0 else 1)

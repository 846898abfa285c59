(* Command-line driver for the paper's experiments.

   slowcc_run list                 enumerate experiment ids
   slowcc_run run fig7 [--quick]   reproduce one figure
   slowcc_run all [--quick]        reproduce everything (= run all)
   slowcc_run all --backend proc --workers 4 --cache-dir D
                                   same sweep over worker processes
   slowcc_run worker QUEUE_DIR     join an existing sweep as a worker
   slowcc_run compete ...          ad-hoc two-protocol fairness run *)

open Cmdliner

let fmt = Format.std_formatter

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink sweeps and durations.")

(* [conv] narrowed to the values [ok] accepts.  A count or a physical
   quantity out of range is then a usage error (exit 124), not an
   uncaught exception or a run that never ends. *)
let restrict conv ok what =
  let parse s =
    Result.bind (Arg.conv_parser conv s) (fun v ->
        if ok v then Ok v else Error (`Msg (Printf.sprintf "%S is not %s" s what)))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = restrict Arg.int (fun n -> n > 0) "a positive integer"

(* One engine holds at most [Flow_soa.max_flows] flows. *)
let flow_count =
  restrict Arg.int
    (fun n -> n > 0 && n <= Cc.Flow_soa.max_flows)
    (Printf.sprintf "an integer in 1..%d" Cc.Flow_soa.max_flows)

let pos_float =
  restrict Arg.float
    (fun v -> Float.is_finite v && v > 0.)
    "a finite positive number"

let jobs_arg =
  Arg.(
    value
    & opt int (Engine.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parameter sweeps (default: this machine's \
           recommended domain count; 1 = serial).  Results are identical \
           for any N.")

let out_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:
          "Write results under $(docv): per-table CSV and/or JSONL plus a \
           manifest.json recording parameters and content digests.  The \
           digested portion of the manifest is byte-identical for any \
           --jobs value.")

let emit_conv =
  let parse s =
    match Slowcc.Manifest.emit_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown format %S (csv|jsonl|both)" s))
  in
  let print fmt e =
    Format.pp_print_string fmt (Slowcc.Manifest.emit_to_string e)
  in
  Arg.conv (parse, print)

let emit_arg =
  Arg.(
    value
    & opt emit_conv Slowcc.Manifest.Both
    & info [ "emit" ] ~docv:"FMT"
        ~doc:
          "Table format(s) written under --out-dir: $(b,csv), $(b,jsonl) or \
           $(b,both) (default).  Ignored without --out-dir.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~env:(Cmd.Env.info "SLOWCC_CACHE_DIR")
        ~docv:"DIR"
        ~doc:
          "Content-addressed result cache: re-running an experiment with \
           the same binary, id, --quick flag and parameters replays the \
           stored (digest-verified) tables instead of re-simulating.  \
           --jobs is not part of the key — results are byte-identical at \
           any N.  The directory also persists per-job timings that order \
           parallel sweeps longest-first.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Ignore --cache-dir / $(b,SLOWCC_CACHE_DIR): neither read nor \
           write cache entries for this invocation.")

(* The cache handle for one invocation, or [None] when caching is off. *)
let open_cache ~cache_dir ~no_cache =
  match cache_dir with
  | Some dir when not no_cache -> Some (Slowcc.Result_cache.create ~dir ())
  | _ -> None

let report_cache =
  Option.iter (fun cache ->
      Format.eprintf "cache: %d hit(s), %d miss(es) under %s@."
        (Slowcc.Result_cache.hits cache)
        (Slowcc.Result_cache.misses cache)
        (Slowcc.Result_cache.dir cache))

(* ------------------------------------------------------------------ *)
(* Process backend: coordinator and worker                             *)
(* ------------------------------------------------------------------ *)

let backend_conv =
  let parse s =
    match Engine.Pool.backend_of_string s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S (domain|proc)" s))
  in
  let print fmt b = Format.pp_print_string fmt (Engine.Pool.backend_to_string b) in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Engine.Pool.Domains
    & info [ "backend" ] ~docv:"B"
        ~doc:
          "Sweep execution backend: $(b,domain) (worker domains in this \
           process, default) or $(b,proc) (worker processes coordinating \
           through a work queue inside --cache-dir, which is required).  \
           Output bytes are identical under either backend at any worker \
           count.")

let workers_arg =
  Arg.(
    value
    & opt int (Engine.Pool.default_jobs ())
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes for $(b,--backend proc) (default: this \
           machine's recommended domain count).  $(b,0) spawns none: the \
           coordinator seeds the queue, prints its path and waits for \
           external 'slowcc_run worker' processes — the multi-machine \
           mode.")

let lease_arg =
  Arg.(
    value & opt float 3600.
    & info [ "lease-s" ] ~docv:"SECONDS"
        ~doc:
          "Claim lease for the process backend.  A worker that dies \
           mid-job has its claim requeued once the lease expires, so the \
           lease must exceed the longest single unit; an expired-but-alive \
           worker merely duplicates idempotent work.")

let poll_arg =
  Arg.(
    value & opt float 0.5
    & info [ "poll-s" ] ~docv:"SECONDS"
        ~doc:"Idle polling interval for process-backend workers and the \
              coordinator's completion tail.")

(* Seed a queue over [units], run workers until it drains, then hand
   control back to [assemble] — which replays every unit through the now-
   populated cache (byte-identical to a serial run by construction) and
   recomputes any unit whose worker failed.  The queue is deleted after a
   successful assembly. *)
let with_proc_backend ~quick ~jobs ~workers ~lease_s ~poll_s ~cache ~units
    assemble =
  let now () = Unix.gettimeofday () in
  let qdir =
    Filename.concat
      (Slowcc.Result_cache.dir cache)
      (Printf.sprintf "queue-%d-%06x" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  let q =
    Slowcc.Workqueue.seed ~dir:qdir
      ~fingerprint:(Slowcc.Result_cache.fingerprint cache)
      ~quick
      ~jobs:
        (List.map
           (fun u -> (u, Slowcc.Experiments.unit_cost ~cache ~quick u))
           units)
  in
  Format.eprintf "queue: %s (%d unit(s))@." qdir (List.length units);
  let requeue () = ignore (Slowcc.Workqueue.requeue_expired q ~now:(now ())) in
  let nap () = Unix.sleepf (Float.max 0.05 poll_s) in
  (if workers = 0 then begin
     Format.eprintf
       "no local workers; run 'slowcc_run worker %s' on any machine sharing \
        this filesystem@."
       qdir;
     while not (Slowcc.Workqueue.drained q) do
       requeue ();
       nap ()
     done
   end
   else begin
     (* Split this machine's domain budget across the worker processes;
        each worker still parallelizes within a unit on its own pool. *)
     let worker_jobs = max 1 (jobs / max 1 workers) in
     let args =
       [
         Sys.executable_name; "worker"; qdir; "--jobs";
         string_of_int worker_jobs; "--lease-s"; string_of_float lease_s;
         "--poll-s"; string_of_float poll_s;
       ]
     in
     let spawn () =
       Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
         Unix.stdout Unix.stderr
     in
     let pids = List.init workers (fun _ -> spawn ()) in
     let rec tail alive =
       if Slowcc.Workqueue.drained q then alive
       else begin
         let alive =
           List.filter
             (fun pid ->
               match Unix.waitpid [ Unix.WNOHANG ] pid with
               | 0, _ -> true
               | _ -> false
               | exception Unix.Unix_error _ -> false)
             alive
         in
         requeue ();
         if alive = [] then begin
           (* Workers exit on drain, so an early empty list means crashes;
              assembly below recomputes whatever is missing. *)
           if not (Slowcc.Workqueue.drained q) then
             Format.eprintf
               "warning: all workers exited with work outstanding; finishing \
                locally@.";
           alive
         end
         else begin
           nap ();
           tail alive
         end
       end
     in
     let alive = tail pids in
     List.iter
       (fun pid ->
         try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
       alive
   end);
  (match Slowcc.Workqueue.failed_units q with
  | [] -> ()
  | failed ->
    Format.eprintf "warning: worker-side failure(s) in %s; recomputing \
                    locally@."
      (String.concat ", " failed));
  let result = assemble () in
  Slowcc.Workqueue.delete q;
  result

let worker_cmd =
  let queue_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUEUE_DIR"
          ~doc:
            "Queue directory printed by a '--backend proc' coordinator \
             (lives inside the shared cache directory).")
  in
  let run verbose jobs lease_s poll_s queue_dir =
    setup_logs verbose;
    match Slowcc.Workqueue.load ~dir:queue_dir with
    | Error msg ->
      Format.eprintf "cannot open queue %s: %s@." queue_dir msg;
      2
    | Ok q ->
      let self = Slowcc.Result_cache.self_fingerprint () in
      if not (String.equal self (Slowcc.Workqueue.fingerprint q)) then begin
        (* A mismatched binary would publish cache entries under keys the
           coordinator will never look up — wasted work at best, so
           refuse loudly. *)
        Format.eprintf
          "fingerprint mismatch: queue was seeded by %s but this binary is \
           %s; use the same build on every machine@."
          (Slowcc.Workqueue.fingerprint q)
          self;
        3
      end
      else begin
        let cache_dir = Filename.dirname (Slowcc.Workqueue.dir q) in
        let cache = Slowcc.Result_cache.create ~dir:cache_dir () in
        let quick = Slowcc.Workqueue.quick q in
        let worker =
          Slowcc.Workqueue.sanitize_worker
            (Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ()))
        in
        Engine.Pool.with_pool ~jobs (fun pool ->
            let completed =
              Slowcc.Workqueue.worker_loop q ~worker ~now:Unix.gettimeofday
                ~sleep:Unix.sleepf ~lease_s ~poll_s
                ~run:(fun (job : Slowcc.Workqueue.job) ->
                  match
                    Slowcc.Experiments.run_cached ~quick ~pool ~cache
                      ~now:Unix.gettimeofday job.Slowcc.Workqueue.name
                  with
                  | Some _ -> ()
                  | None ->
                    failwith
                      ("unknown experiment " ^ job.Slowcc.Workqueue.name))
            in
            Format.eprintf "worker %s: %d job(s) completed@." worker completed;
            0)
      end
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Join a '--backend proc' sweep: claim queued experiment units, \
          run them and publish the results into the shared cache.  Exits \
          when the queue drains; exit code 3 means this binary does not \
          match the one that seeded the queue.")
    Term.(
      const run $ verbose_arg $ jobs_arg $ lease_arg $ poll_arg $ queue_arg)

let list_cmd =
  let run () =
    List.iter print_endline Slowcc.Experiments.names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List experiment identifiers")
    Term.(const run $ const ())

(* [run] and [all] share one body: [all] is the registry's id for every
   unit, in figure order. *)
let run_experiment verbose quick jobs out_dir emit cache_dir no_cache backend
    workers lease_s poll_s name =
  setup_logs verbose;
  let cache = open_cache ~cache_dir ~no_cache in
  let unknown () =
    Format.eprintf "unknown experiment %s; try 'slowcc_run list'@." name;
    1
  in
  let finish ~backend pool =
    let stream = Slowcc.Table.print fmt in
    let result =
      match out_dir with
      | None ->
        Slowcc.Experiments.run_cached ~stream ~quick ~pool ?cache
          ~now:Unix.gettimeofday name
      | Some dir ->
        Slowcc.Experiments.run_to_dir ~stream ~quick ~pool ?cache ?backend
          ~emit ~now:Unix.gettimeofday ~dir ~jobs name
        |> Option.map (fun (manifest_path, tables) ->
               Format.eprintf "wrote %s@." manifest_path;
               tables)
    in
    match result with
    | Some _ ->
      report_cache cache;
      0
    | None -> unknown ()
  in
  match (backend, cache) with
  | Engine.Pool.Domains, _ ->
    Engine.Pool.with_pool ~jobs (fun pool -> finish ~backend:None pool)
  | Engine.Pool.Procs, None ->
    Format.eprintf "--backend proc needs --cache-dir (the queue and the \
                    results live there)@.";
    2
  | Engine.Pool.Procs, Some cache -> (
    match Slowcc.Experiments.units name with
    | [] -> unknown ()
    | units ->
      with_proc_backend ~quick ~jobs ~workers ~lease_s ~poll_s ~cache ~units
        (fun () ->
          Engine.Pool.with_pool ~jobs (fun pool ->
              finish ~backend:(Some "proc") pool)))

let experiment_term verbose experiment =
  Term.(
    const run_experiment $ verbose $ quick_arg $ jobs_arg $ out_dir_arg
    $ emit_arg $ cache_dir_arg $ no_cache_arg $ backend_arg $ workers_arg
    $ lease_arg $ poll_arg $ experiment)

let run_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id, e.g. fig7.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and print its table")
    (experiment_term verbose_arg name_arg)

let all_cmd =
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in figure order")
    (experiment_term (Term.const false) (Term.const "all"))

(* [cache stats]/[cache clear] operate on the directory directly (no
   cache handle): they must work for caches written by other binaries. *)
let cache_dir_required =
  Arg.(
    required
    & opt (some string) None
    & info [ "cache-dir" ]
        ~env:(Cmd.Env.info "SLOWCC_CACHE_DIR")
        ~docv:"DIR" ~doc:"Cache directory to inspect or clear.")

let cache_stats_cmd =
  let run dir =
    let fp = Slowcc.Result_cache.self_fingerprint () in
    let s = Slowcc.Result_cache.stats ~fingerprint:fp ~dir () in
    Format.printf "dir:         %s@." dir;
    Format.printf "entries:     %d (%d bytes)@." s.Slowcc.Result_cache.entries
      s.Slowcc.Result_cache.entry_bytes;
    Format.printf "timings:     %d job(s), %d usable by this binary@."
      s.Slowcc.Result_cache.timing_entries
      s.Slowcc.Result_cache.timing_entries_self;
    Format.printf "fingerprint: %s (this binary)@." fp;
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Show entry count, total size and timing coverage (how many \
          recorded job timings this binary's LPT scheduling can use)")
    Term.(const run $ cache_dir_required)

let age_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf "cannot parse duration %S (e.g. 90s, 30m, 12h, 7d)" s))
    in
    let len = String.length s in
    if len = 0 then fail ()
    else
      let num, mult =
        match s.[len - 1] with
        | 's' -> (String.sub s 0 (len - 1), 1.)
        | 'm' -> (String.sub s 0 (len - 1), 60.)
        | 'h' -> (String.sub s 0 (len - 1), 3600.)
        | 'd' -> (String.sub s 0 (len - 1), 86400.)
        | _ -> (s, 1.)
      in
      match float_of_string_opt num with
      | Some v when Float.is_finite v && v >= 0. -> Ok (v *. mult)
      | Some _ | None -> fail ()
  in
  Arg.conv (parse, fun fmt v -> Format.fprintf fmt "%gs" v)

let cache_prune_cmd =
  let older_arg =
    Arg.(
      required
      & opt (some age_conv) None
      & info [ "older-than" ] ~docv:"AGE"
          ~doc:
            "Delete entries not modified in the last $(docv): plain \
             seconds or a number suffixed with $(b,s), $(b,m), $(b,h) or \
             $(b,d).")
  in
  let run dir older_than_s =
    let mtime path =
      match Unix.stat path with
      | st -> Some st.Unix.st_mtime
      | exception Unix.Unix_error _ -> None
    in
    let s =
      Slowcc.Result_cache.prune ~dir ~older_than_s ~now:(Unix.time ()) ~mtime
    in
    Format.printf "pruned %d entr(ies) (%d bytes), kept %d under %s@."
      s.Slowcc.Result_cache.pruned s.Slowcc.Result_cache.pruned_bytes
      s.Slowcc.Result_cache.kept dir;
    0
  in
  Cmd.v
    (Cmd.info "prune"
       ~doc:
         "Delete cache entries older than a cutoff (by file modification \
          time); the timing store is kept")
    Term.(const run $ cache_dir_required $ older_arg)

let cache_clear_cmd =
  let run dir =
    let s = Slowcc.Result_cache.stats ~dir () in
    Slowcc.Result_cache.clear ~dir;
    Format.printf "cleared %d entr(ies) and the timing store under %s@."
      s.Slowcc.Result_cache.entries dir;
    0
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Delete every cache entry and the timing store")
    Term.(const run $ cache_dir_required)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect, prune or clear a result cache directory (see \
          --cache-dir on run/all)")
    [ cache_stats_cmd; cache_prune_cmd; cache_clear_cmd ]

let protocol_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Slowcc.Protocol.of_string s)
  in
  let print fmt p = Format.pp_print_string fmt (Slowcc.Protocol.to_string p) in
  Arg.conv (parse, print)

let compete_cmd =
  let proto_a =
    Arg.(
      value
      & opt protocol_conv (Slowcc.Protocol.tcp ~gamma:2.)
      & info [ "a" ] ~docv:"PROTO" ~doc:"First protocol group.")
  in
  let proto_b =
    Arg.(
      value
      & opt protocol_conv (Slowcc.Protocol.tfrc ~k:6 ())
      & info [ "b" ] ~docv:"PROTO" ~doc:"Second protocol group.")
  in
  let n_arg =
    Arg.(value & opt pos_int 5 & info [ "n" ] ~doc:"Flows per group.")
  in
  let bw_arg =
    Arg.(
      value & opt pos_float 15e6 & info [ "bandwidth" ] ~doc:"Bottleneck bits/s.")
  in
  let period_arg =
    Arg.(
      value & opt pos_float 4.
      & info [ "period" ] ~doc:"CBR square-wave period in seconds.")
  in
  let run verbose a b n bandwidth period =
    setup_logs verbose;
    let r =
      Slowcc.Scenarios.square_wave
        ~flows:[ (a, n); (b, n) ]
        ~bandwidth ~cbr_fraction:(2. /. 3.) ~period ()
    in
    Format.printf "%-14s normalized throughput %.3f@." (Slowcc.Protocol.name a)
      (r.Slowcc.Scenarios.group_mean (Slowcc.Protocol.name a));
    Format.printf "%-14s normalized throughput %.3f@." (Slowcc.Protocol.name b)
      (r.Slowcc.Scenarios.group_mean (Slowcc.Protocol.name b));
    Format.printf "link utilization %.3f, drop rate %.2f%%@."
      r.Slowcc.Scenarios.utilization
      (100. *. r.Slowcc.Scenarios.drop_rate);
    0
  in
  Cmd.v
    (Cmd.info "compete"
       ~doc:"Run two protocol groups against a square-wave CBR and compare")
    Term.(
      const run $ verbose_arg $ proto_a $ proto_b $ n_arg $ bw_arg $ period_arg)

let fuzz_cmd =
  let seeds_arg =
    Arg.(
      value & opt pos_int 100
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of random scenarios (seeds 0..N-1).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a saved reproducer instead of generating scenarios.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write shrunk reproducers of failing scenarios under $(docv).")
  in
  let run verbose quick jobs seeds replay out_dir =
    setup_logs verbose;
    let with_opt_pool f =
      if jobs > 1 then Engine.Pool.with_pool ~jobs (fun p -> f (Some p))
      else f None
    in
    with_opt_pool (fun pool ->
        match replay with
        | Some path -> (
          match Slowcc.Fuzz.load_repro path with
          | Error msg ->
            Printf.eprintf "cannot load %s: %s\n" path msg;
            2
          | Ok sc -> (
            Printf.printf "replaying %s\n%!" (Slowcc.Fuzz.describe sc);
            match Slowcc.Fuzz.check ?pool sc with
            | None ->
              print_endline "scenario passes: no violation, all legs agree";
              0
            | Some failure ->
              Printf.printf "still fails: %s\n" failure;
              1))
        | None ->
          let report =
            Slowcc.Fuzz.run_seeds ?pool ~quick ?out_dir ~log:print_endline
              ~seeds ()
          in
          if
            report.Slowcc.Fuzz.failures = []
            && report.Slowcc.Fuzz.soa_failures = []
          then (
            Printf.printf "fuzz: %d seeds, no violations, no divergences\n"
              report.Slowcc.Fuzz.seeds_run;
            0)
          else (
            Printf.printf "fuzz: %d seeds, %d FAILURE(S), %d SoA FAILURE(S)\n"
              report.Slowcc.Fuzz.seeds_run
              (List.length report.Slowcc.Fuzz.failures)
              (List.length report.Slowcc.Fuzz.soa_failures);
            List.iter
              (fun f ->
                Printf.printf "  seed %d: %s\n    shrunk: %s\n    %s\n"
                  f.Slowcc.Fuzz.scenario.Slowcc.Fuzz.seed
                  f.Slowcc.Fuzz.first_failure
                  (Slowcc.Fuzz.describe f.Slowcc.Fuzz.shrunk)
                  f.Slowcc.Fuzz.shrunk_failure)
              report.Slowcc.Fuzz.failures;
            List.iter
              (fun (seed, msg) -> Printf.printf "  seed %d (SoA): %s\n" seed msg)
              report.Slowcc.Fuzz.soa_failures;
            1))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random scenarios cross-checked across \
          allocation and worker-domain axes under the audit layer; \
          failures are shrunk to minimal replayable reproducers")
    Term.(
      const run $ verbose_arg $ quick_arg $ jobs_arg $ seeds_arg $ replay_arg
      $ out_arg)

let manyflow_cmd =
  let n_arg =
    Arg.(
      value
      & opt (some flow_count) None
      & info [ "n"; "flows" ] ~docv:"N"
          ~doc:
            "Flow count.  Without $(b,--check): run a single N.  With \
             $(b,--check): equivalence flow count (default 64).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Differential mode: run the flows as one n-slot engine and as \
             n one-slot engines on the same scenario and compare end-state \
             digests; non-zero exit on mismatch.")
  in
  let print_result (r : Slowcc.Manyflow.result) =
    Printf.printf
      "flows=%d events=%d mean=%.4f cov=%.4f cov_sampled=%.4f jain=%.4f \
       p10=%.3f p50=%.3f p90=%.3f util=%.4f drop_rate=%.4f\n"
      r.Slowcc.Manyflow.rn r.Slowcc.Manyflow.events r.Slowcc.Manyflow.mean_norm
      r.Slowcc.Manyflow.cov r.Slowcc.Manyflow.cov_sampled r.Slowcc.Manyflow.jain
      r.Slowcc.Manyflow.p10 r.Slowcc.Manyflow.p50 r.Slowcc.Manyflow.p90
      r.Slowcc.Manyflow.utilization r.Slowcc.Manyflow.drop_rate;
    Array.iteri
      (fun k frac ->
        Printf.printf "  %-10s %6.2f%%\n"
          (Slowcc.Manyflow.bucket_label k)
          (100. *. frac))
      r.Slowcc.Manyflow.hist
  in
  let run verbose quick n check =
    setup_logs verbose;
    match (check, n) with
    | true, n ->
      let n = Option.value n ~default:64 in
      let p = Slowcc.Manyflow.default_params ~n in
      let p =
        if quick then { p with Slowcc.Manyflow.duration = 5. } else p
      in
      let soa = Slowcc.Manyflow.digest_soa p in
      let obj = Slowcc.Manyflow.digest_object p in
      Printf.printf "soa    %s\nobject %s\n" soa obj;
      if String.equal soa obj then (
        Printf.printf "manyflow check: engines identical at n=%d\n" n;
        0)
      else (
        Printf.printf "manyflow check: DIVERGENCE at n=%d\n" n;
        1)
    | false, Some n ->
      print_result
        (Slowcc.Manyflow.run (Slowcc.Manyflow.experiment_params ~quick n));
      0
    | false, None ->
      Format.eprintf
        "manyflow needs --flows N or --check; for the sweep use \
         'slowcc_run run manyflow'@.";
      2
  in
  Cmd.v
    (Cmd.info "manyflow"
       ~doc:
         "Many-flow weak-convergence distributions on the struct-of-arrays \
          engine: a single N, or the n-slot vs one-slot differential check \
          (the sweep is 'slowcc_run run manyflow')")
    Term.(const run $ verbose_arg $ quick_arg $ n_arg $ check_arg)

let main =
  Cmd.group
    (Cmd.info "slowcc_run" ~version:"1.0.0"
       ~doc:
         "Reproduction driver for 'Dynamic Behavior of Slowly-Responsive \
          Congestion Control Algorithms' (SIGCOMM 2001)")
    [
      list_cmd; run_cmd; all_cmd; worker_cmd; compete_cmd; cache_cmd; fuzz_cmd;
      manyflow_cmd;
    ]

let () = exit (Cmd.eval' main)

(* The persistent work queue behind the process-pool sweep backend:
   seed/load round-trips, submission-order claims, atomic claim races across
   real worker processes, lease-expiry crash recovery (a worker killed
   mid-job), failed-job semantics, and the end-to-end guarantee that a
   sweep assembled from worker-published cache entries is byte-identical
   to a serial run. *)

module Wq = Slowcc.Workqueue

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir = Printf.sprintf "tmp-workqueue/case%d" !n in
    rm_rf dir;
    dir

(* Real worker processes.  [Unix.fork] is off-limits in OCaml 5 once any
   domain has been spawned (the pool suite runs earlier), so workers are
   fresh invocations of this very test binary: the dispatcher at the
   bottom of this module intercepts SLOWCC_WQ_CHILD during module init —
   before Alcotest ever runs — performs the requested role, and exits. *)
let spawn_child ~mode ~dir ~aux ~id =
  let env =
    Array.append (Unix.environment ())
      [|
        "SLOWCC_WQ_CHILD=" ^ mode;
        "SLOWCC_WQ_DIR=" ^ dir;
        "SLOWCC_WQ_AUX=" ^ aux;
        "SLOWCC_WQ_ID=" ^ id;
      |]
  in
  Unix.create_process_env Sys.executable_name
    [| Sys.executable_name |]
    env Unix.stdin Unix.stdout Unix.stderr

let job_names jobs = List.map (fun (j : Wq.job) -> j.Wq.name) jobs

(* The estimates are ignored: claims follow submission order. *)
let sample_jobs =
  [ ("a", Some 1.); ("b", Some 5.); ("c", None); ("d", Some 5.) ]

let test_seed_load_order () =
  let dir = fresh_dir () in
  let q = Wq.seed ~dir ~fingerprint:"fp" ~quick:true ~jobs:sample_jobs in
  (match Wq.load ~dir with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok q' ->
    Alcotest.(check string) "fingerprint round-trips" "fp" (Wq.fingerprint q');
    Alcotest.(check bool) "quick round-trips" true (Wq.quick q');
    Alcotest.(check (list string))
      "jobs stay in submission order"
      [ "a"; "b"; "c"; "d" ]
      (job_names (Wq.jobs q'));
    Alcotest.(check (list int))
      "submission indices" [ 0; 1; 2; 3 ]
      (List.map (fun (j : Wq.job) -> j.Wq.index) (Wq.jobs q')));
  (* Sorted readdir of todo/ IS the schedule: submission order. *)
  let todo = Sys.readdir (Filename.concat dir "todo") in
  Array.sort String.compare todo;
  Alcotest.(check (list string))
    "todo files encode submission index"
    [ "000-a"; "001-b"; "002-c"; "003-d" ]
    (Array.to_list todo);
  Alcotest.(check bool) "reseeding an existing queue refuses" true
    (match Wq.seed ~dir ~fingerprint:"fp" ~quick:true ~jobs:[] with
    | exception Sys_error _ -> true
    | _ -> false);
  Wq.delete q;
  Alcotest.(check bool) "delete removes the queue dir" false
    (Sys.file_exists dir)

let test_sequential_claims () =
  let dir = fresh_dir () in
  let q = Wq.seed ~dir ~fingerprint:"fp" ~quick:false ~jobs:sample_jobs in
  let order = ref [] in
  let rec drain () =
    match Wq.try_claim q ~worker:"w 1" ~now:100. ~lease_s:60. with
    | Some c ->
      order := (Wq.claimed_job c).Wq.name :: !order;
      Wq.finish q c ~wall_s:0.1 ~result:(Ok ());
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string))
    "claims follow submission order" [ "a"; "b"; "c"; "d" ]
    (List.rev !order);
  Alcotest.(check bool) "queue drained" true (Wq.drained q);
  let s = Wq.status q in
  Alcotest.(check int) "all complete" 4 s.Wq.complete;
  Alcotest.(check int) "total preserved" 4 s.Wq.total;
  Alcotest.(check (list string)) "no failures" [] (Wq.failed_units q)

let test_lease_expiry_requeue () =
  let dir = fresh_dir () in
  let q =
    Wq.seed ~dir ~fingerprint:"fp" ~quick:false
      ~jobs:[ ("a", None); ("b", None) ]
  in
  (match Wq.try_claim q ~worker:"dying" ~now:0. ~lease_s:1. with
  | None -> Alcotest.fail "first claim failed"
  | Some _abandoned_claim -> ());
  Alcotest.(check int) "live lease is not requeued" 0
    (Wq.requeue_expired q ~now:0.5);
  Alcotest.(check bool) "claim keeps the queue undrained" false
    (Wq.drained q);
  Alcotest.(check int) "expired lease is requeued" 1
    (Wq.requeue_expired q ~now:2.);
  match Wq.try_claim q ~worker:"rescuer" ~now:2. ~lease_s:60. with
  | Some c ->
    Alcotest.(check string) "the abandoned job is claimable again" "a"
      (Wq.claimed_job c).Wq.name
  | None -> Alcotest.fail "revived job not claimable"

(* A lease too long for an int of milliseconds saturates instead of
   wrapping into an expiry that is already past. *)
let test_huge_lease_never_expires () =
  let dir = fresh_dir () in
  let q = Wq.seed ~dir ~fingerprint:"fp" ~quick:false ~jobs:[ ("a", None) ] in
  (match Wq.try_claim q ~worker:"w" ~now:0. ~lease_s:1e300 with
  | None -> Alcotest.fail "claim failed"
  | Some _ -> ());
  Alcotest.(check int) "nothing requeued" 0 (Wq.requeue_expired q ~now:1e9);
  Alcotest.(check int) "job stays claimed" 1 (Wq.status q).Wq.claimed;
  Wq.delete q

let test_failed_jobs_not_retried () =
  let dir = fresh_dir () in
  let q =
    Wq.seed ~dir ~fingerprint:"fp" ~quick:false
      ~jobs:[ ("boom", None); ("ok", None) ]
  in
  let runs = ref 0 in
  let completed =
    Wq.worker_loop q ~worker:"w" ~now:Unix.gettimeofday ~sleep:Unix.sleepf
      ~lease_s:60. ~poll_s:0.01
      ~run:(fun (j : Wq.job) ->
        incr runs;
        if String.equal j.Wq.name "boom" then failwith "kaput")
  in
  (* A deterministic failure reaches a done marker (ok = false) and is
     NOT retried — only crashed workers' jobs are, via lease expiry. *)
  Alcotest.(check int) "both jobs reached done" 2 completed;
  Alcotest.(check int) "each job ran exactly once" 2 !runs;
  Alcotest.(check bool) "drained despite the failure" true (Wq.drained q);
  Alcotest.(check (list string)) "failure is reported" [ "boom" ]
    (Wq.failed_units q)

(* Satellite: >= 4 real worker processes racing on one queue — every job
   claimed and executed exactly once (enforced with O_EXCL marker files),
   no worker errors, queue drained. *)
let test_concurrent_claims_exactly_once () =
  let dir = fresh_dir () in
  let ran = dir ^ "-ran" in
  rm_rf ran;
  Slowcc.Table.ensure_dir ran;
  let jobs =
    List.init 12 (fun i ->
        ( Printf.sprintf "j%02d" i,
          if i mod 2 = 0 then Some (float_of_int i) else None ))
  in
  let q = Wq.seed ~dir ~fingerprint:"fp" ~quick:false ~jobs in
  let pids =
    List.init 4 (fun i ->
        spawn_child ~mode:"race" ~dir ~aux:ran ~id:(Printf.sprintf "w%d" i))
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a worker process exited abnormally")
    pids;
  Alcotest.(check bool) "queue drained" true (Wq.drained q);
  Alcotest.(check (list string)) "every job executed exactly once" []
    (Wq.failed_units q);
  Alcotest.(check int) "all done markers present" 12 (Wq.status q).Wq.complete;
  Alcotest.(check int) "all run markers present" 12
    (Array.length (Sys.readdir ran))

(* Satellite: a worker killed mid-job (claim held, no done marker) is
   recovered — its lease expires, a healthy worker requeues and re-runs
   the job, and nothing is lost or duplicated in the final state. *)
let test_killed_worker_recovered () =
  let dir = fresh_dir () in
  let q =
    Wq.seed ~dir ~fingerprint:"fp" ~quick:false
      ~jobs:[ ("poison", None); ("a", None); ("b", None) ]
  in
  let victim = spawn_child ~mode:"victim" ~dir ~aux:"" ~id:"victim" in
  let claims = Filename.concat dir "claims" in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    Array.length (try Sys.readdir claims with Sys_error _ -> [||]) = 0
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "victim holds the poison claim" 1
    (Wq.status q).Wq.claimed;
  Unix.kill victim Sys.sigkill;
  ignore (Unix.waitpid [] victim);
  let seen = ref [] in
  let completed =
    Wq.worker_loop q ~worker:"rescuer" ~now:Unix.gettimeofday
      ~sleep:Unix.sleepf ~lease_s:60. ~poll_s:0.02
      ~run:(fun (j : Wq.job) -> seen := j.Wq.name :: !seen)
  in
  Alcotest.(check int) "rescuer completed everything" 3 completed;
  Alcotest.(check bool) "queue drained" true (Wq.drained q);
  Alcotest.(check (list string)) "no failures recorded" []
    (Wq.failed_units q);
  Alcotest.(check (list string))
    "the poison job was re-run"
    [ "a"; "b"; "poison" ]
    (List.sort String.compare !seen)

(* Tentpole guarantee, end to end: two worker processes execute real
   experiment units into a shared cache; reassembling by cache lookup is
   pure hits and byte-identical (per-table digests) to a serial run. *)
let test_proc_sweep_byte_identical () =
  let dir = fresh_dir () in
  Slowcc.Table.ensure_dir dir;
  let fp = "wq-e2e" in
  let units = [ "fig11"; "fig20" ] in
  let serial =
    List.concat_map
      (fun u -> Option.get (Slowcc.Experiments.run_cached ~quick:true u))
      units
  in
  let qdir = Filename.concat dir "queue" in
  let q =
    Wq.seed ~dir:qdir ~fingerprint:fp ~quick:true
      ~jobs:(List.map (fun u -> (u, None)) units)
  in
  let pids =
    List.init 2 (fun i ->
        spawn_child ~mode:"e2e" ~dir:qdir ~aux:dir
          ~id:(Printf.sprintf "e2e%d" i))
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "a worker process exited abnormally")
    pids;
  Alcotest.(check bool) "queue drained" true (Wq.drained q);
  Alcotest.(check (list string)) "no worker-side failures" []
    (Wq.failed_units q);
  let cache = Slowcc.Result_cache.create ~fingerprint:fp ~dir () in
  let assembled =
    List.concat_map
      (fun u ->
        Option.get
          (Slowcc.Experiments.run_cached ~quick:true ~cache u))
      units
  in
  Alcotest.(check (pair int int)) "assembly is pure cache hits" (2, 0)
    (Slowcc.Result_cache.hits cache, Slowcc.Result_cache.misses cache);
  Alcotest.(check (list string))
    "assembled tables byte-identical to serial"
    (List.map Slowcc.Manifest.table_digest serial)
    (List.map Slowcc.Manifest.table_digest assembled);
  Wq.delete q

let test_sanitize_worker () =
  Alcotest.(check string) "unsafe chars mapped" "host-example-com-1234"
    (Wq.sanitize_worker "host.example.com:1234");
  Alcotest.(check string) "empty falls back" "worker" (Wq.sanitize_worker "")

let suite =
  [
    Alcotest.test_case "seed/load round-trip and submission order" `Quick
      test_seed_load_order;
    Alcotest.test_case "sequential claims, exactly once" `Quick
      test_sequential_claims;
    Alcotest.test_case "lease expiry requeues" `Quick test_lease_expiry_requeue;
    Alcotest.test_case "huge lease never expires" `Quick
      test_huge_lease_never_expires;
    Alcotest.test_case "failed jobs are not retried" `Quick
      test_failed_jobs_not_retried;
    Alcotest.test_case "4-process claim race, exactly once" `Quick
      test_concurrent_claims_exactly_once;
    Alcotest.test_case "killed worker recovered via lease" `Quick
      test_killed_worker_recovered;
    Alcotest.test_case "proc sweep byte-identical to serial" `Quick
      test_proc_sweep_byte_identical;
    Alcotest.test_case "worker id sanitization" `Quick test_sanitize_worker;
  ]

(* Child-process dispatcher.  When the test binary is re-executed with
   SLOWCC_WQ_CHILD set, this module-init hook performs the requested
   worker role and exits before Alcotest starts. *)
let run_child mode =
  let getenv name =
    match Sys.getenv_opt name with
    | Some v -> v
    | None -> failwith ("missing " ^ name)
  in
  let dir = getenv "SLOWCC_WQ_DIR" in
  let aux = getenv "SLOWCC_WQ_AUX" in
  let id = getenv "SLOWCC_WQ_ID" in
  let q =
    match Wq.load ~dir with Ok q -> q | Error e -> failwith e
  in
  match mode with
  | "race" ->
    ignore
      (Wq.worker_loop q ~worker:id ~now:Unix.gettimeofday ~sleep:Unix.sleepf
         ~lease_s:60. ~poll_s:0.005
         ~run:(fun (j : Wq.job) ->
           (* O_EXCL: a second execution of the same job would fail the
              create and mark the job failed. *)
           Unix.close
             (Unix.openfile
                (Filename.concat aux j.Wq.name)
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ]
                0o644)))
  | "victim" -> (
    (* Claim the first job with a short lease, then hang —
       simulating a crash mid-execution. *)
    match
      Wq.try_claim q ~worker:id ~now:(Unix.gettimeofday ()) ~lease_s:0.5
    with
    | Some _ -> Unix.sleep 600
    | None -> failwith "victim claimed nothing")
  | "e2e" ->
    let cache =
      Slowcc.Result_cache.create ~fingerprint:(Wq.fingerprint q) ~dir:aux ()
    in
    ignore
      (Wq.worker_loop q ~worker:id ~now:Unix.gettimeofday ~sleep:Unix.sleepf
         ~lease_s:60. ~poll_s:0.01
         ~run:(fun (j : Wq.job) ->
           match
             Slowcc.Experiments.run_cached ~quick:(Wq.quick q) ~cache
               j.Wq.name
           with
           | Some _ -> ()
           | None -> failwith ("unknown unit " ^ j.Wq.name)))
  | m -> failwith ("unknown child mode " ^ m)

let () =
  match Sys.getenv_opt "SLOWCC_WQ_CHILD" with
  | None -> ()
  | Some mode -> (
    try
      run_child mode;
      exit 0
    with e ->
      prerr_endline ("workqueue child: " ^ Printexc.to_string e);
      exit 1)

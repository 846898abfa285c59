(* Tests for the domain worker pool and the determinism of parallel
   experiment sweeps. *)

let test_map_order () =
  (* Results come back in submission order even with many workers racing
     over a shared queue. *)
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys = Engine.Pool.map_list pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "squares in order"
        (List.map (fun x -> x * x) xs)
        ys)

let test_exception_propagation () =
  Engine.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "worker exception reaches the submitter"
        (Failure "job 5 exploded") (fun () ->
          ignore
            (Engine.Pool.map_list pool
               (fun i -> if i = 5 then failwith "job 5 exploded" else i)
               (List.init 10 Fun.id))))

let test_jobs1_degenerate () =
  (* jobs = 1 spawns no domains and runs inline; results and exceptions
     behave exactly as at higher worker counts. *)
  let pool = Engine.Pool.create ~jobs:1 in
  Alcotest.(check int) "jobs clamped to >= 1" 1 (Engine.Pool.jobs pool);
  Alcotest.(check (list int))
    "inline map" [ 2; 4; 6 ]
    (Engine.Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.check_raises "inline exception" (Failure "boom") (fun () ->
      ignore (Engine.Pool.map_list pool (fun () -> failwith "boom") [ () ]));
  Engine.Pool.shutdown pool

let test_nested_map () =
  (* A job that itself submits a batch must not deadlock: nested batches
     run inline on the worker. *)
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      let ys =
        Engine.Pool.map_list pool
          (fun i ->
            List.fold_left ( + ) 0
              (Engine.Pool.map_list pool (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2 ]
      in
      Alcotest.(check (list int)) "nested results" [ 36; 66 ] ys)

let test_empty_and_shutdown () =
  let pool = Engine.Pool.create ~jobs:2 in
  Alcotest.(check (list int)) "empty batch" []
    (Engine.Pool.map_list pool Fun.id []);
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool: submission after shutdown") (fun () ->
      ignore (Engine.Pool.map_list pool Fun.id [ 1; 2 ]))

(* The acceptance bar for the parallel runner: a figure's rendered table
   must be byte-identical at --jobs 1 and --jobs 4. *)
let render_figure ~jobs name =
  Engine.Pool.with_pool ~jobs (fun pool ->
      match Slowcc.Experiments.run_cached ~quick:true ~pool name with
      | Some tables ->
        String.concat "\n"
          (List.map (fun t -> Format.asprintf "%a" Slowcc.Table.print t) tables)
      | None -> Alcotest.failf "unknown experiment %s" name)

let test_figure_determinism () =
  let serial = render_figure ~jobs:1 "fig17" in
  let parallel = render_figure ~jobs:4 "fig17" in
  Alcotest.(check string) "fig17 identical at jobs=1 and jobs=4" serial
    parallel

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
    Alcotest.test_case "jobs=1 degenerate" `Quick test_jobs1_degenerate;
    Alcotest.test_case "nested map runs inline" `Quick test_nested_map;
    Alcotest.test_case "empty batch and shutdown" `Quick test_empty_and_shutdown;
    Alcotest.test_case "figure table determinism" `Slow test_figure_determinism;
  ]

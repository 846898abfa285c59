(* The sweep-cold and sweep-warm workloads: quick experiment units run
   the way a sweep runs them, through the work queue and the
   content-addressed result cache.

   A cold pass starts from a fresh cache directory and a fresh work
   queue: each unit is claimed with [Workqueue.try_claim], computed with
   [Experiments.run_cached], [finish]ed, then written out with
   [Experiments.run_to_dir] (a cache hit by then).  A warm pass serves
   every unit from a filled cache with [run_to_dir].  A unit's count
   vector is the list of its table digests.

   Units run in the calling domain, without a pool: with two pool workers
   on a two-core host shared with other work, the slower worker set each
   batch's time and the cold pass's run-to-run spread doubled. *)

open Slowcc

let quick = true

(* Ten quick units, none of them analytic-only, about 3 s in all on one
   core.  They do not depend on the seed.  Drawing which units run moved
   a pass's cost by more than the regression bound, since the candidates'
   costs and table sizes differ severalfold; drawing their order moved
   the live heap by up to 30%, since what the packet pool keeps after a
   unit depends on the units before it. *)
let units ~smoke =
  if smoke then [ "fig17"; "fig19" ]
  else
    [
      "ablation-10to1-fairness"; "manyflow"; "table-transient";
      "ablation-response-sim"; "ablation-rtt-fairness"; "ablation-queue-dynamics";
      "fig17"; "fig18"; "fig19"; "ablation-binomial-l";
    ]

let digests tables = String.concat "," (List.map Manifest.table_digest tables)

(* [timed_in sums key f] runs [f] under a span named [key], adding one
   call and its host seconds to [sums]. *)
let timed_in sums key f =
  let r, s = Spans.with_span key (fun () -> Spans.timed f) in
  Tally.add sums ("core." ^ key) 1.;
  Tally.add sums ("core." ^ key ^ "_s") s;
  (r, s)

let now = Unix.gettimeofday

(* Set-up of a cold pass: open a fresh cache and seed the queue. *)
let open_cold ~dir ~units =
  let cache = Result_cache.create ~dir () in
  let wq =
    Workqueue.seed ~dir:(Filename.concat dir "queue")
      ~fingerprint:(Result_cache.fingerprint cache) ~quick
      ~jobs:(List.map (fun u -> (u, None)) units)
  in
  (cache, wq)

(* One cold pass into [dir] (fresh).  Returns the pass and every unit's
   tables, in claim order. *)
let cold_pass ~dir ~out ~units =
  let sums = Tally.sums () in
  let t0 = Spans.now_ns () in
  let (cache, wq), setup_s = Spans.timed (fun () -> open_cold ~dir ~units) in
  Tally.add sums "setup.build_s" setup_s;
  let problems = ref [] in
  let rec loop acc =
    match
      fst
        (timed_in sums "workqueue.claim" (fun () ->
             Workqueue.try_claim wq ~worker:"bench" ~now:(now ()) ~lease_s:3600.))
    with
    | None -> List.rev acc
    | Some claimed ->
      let name = (Workqueue.claimed_job claimed).Workqueue.name in
      let result =
        Spans.with_span "unit" (fun () ->
            Tally.guard name (fun () ->
                let t_unit = Spans.now_ns () in
                let computed, rc_s =
                  timed_in sums "run_cached" (fun () ->
                      Experiments.run_cached ~quick ~cache ~now name)
                in
                ignore
                  (timed_in sums "workqueue.finish" (fun () ->
                       Workqueue.finish wq claimed ~wall_s:rc_s ~result:(Ok ())));
                let written, _ =
                  timed_in sums "run_to_dir" (fun () ->
                      Experiments.run_to_dir ~quick ~cache ~now
                        ~dir:(Filename.concat out name) ~jobs:1 name)
                in
                match (computed, written) with
                | Some a, Some (_, b) ->
                  let unit_s = Spans.since t_unit in
                  if digests a <> digests b then
                    problems := (name ^ ": run_to_dir tables differ from run_cached") :: !problems;
                  (* Outside the unit's time, with its cache, queue and
                     tables reachable. *)
                  Tally.add_live sums;
                  (unit_s, digests a, a)
                | _ -> failwith "unknown experiment"))
      in
      let entry =
        match result with
        | Ok (s, d, tables) -> (name, s, d, tables)
        | Error m ->
          problems := m :: !problems;
          (name, 0., "error", [])
      in
      loop (entry :: acc)
  in
  let done_ = loop [] in
  let wall_s = Spans.since t0 in
  Tally.add sums "core.cache.hits" (float_of_int (Result_cache.hits cache));
  Tally.add sums "core.cache.misses" (float_of_int (Result_cache.misses cache));
  if List.length done_ <> List.length units || not (Workqueue.drained wq) then
    problems := "queue: not every unit was claimed and finished" :: !problems;
  List.iter
    (fun u -> problems := (u ^ ": failed in the work queue") :: !problems)
    (Workqueue.failed_units wq);
  ( {
      Tally.wall_s;
      unit_s = List.map (fun (_, s, _, _) -> s) done_;
      vectors = List.map (fun (n, _, d, _) -> (n, d)) done_;
      problems = !problems;
      sums;
    },
    List.map (fun (n, _, _, t) -> (n, t)) done_ )

(* The files of a cache filled for the sweep-warm workload: the units to
   fill it with, one per line, and each unit's table digests after the
   fill, one "unit digests" line each. *)
let units_file dir = Filename.concat dir "units"
let expected_file dir = Filename.concat dir "expected"

let read_lines file = In_channel.with_open_bin file In_channel.input_lines

(* Fill the cache at [dir] with one cold pass over the units listed in
   [units_file dir] and write [expected_file dir].  The sweep-warm
   workload runs this in a child process, so that the warm process's
   peak heap is the read path's alone.  Returns the fill's failed
   checks. *)
let fill ~dir =
  let units = read_lines (units_file dir) in
  let p, _ = cold_pass ~dir ~out:(Filename.concat dir "fill-out") ~units in
  Out_channel.with_open_bin (expected_file dir) (fun oc ->
      List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) p.Tally.vectors);
  p.Tally.problems

let read_expected dir =
  List.filter_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> None)
    (read_lines (expected_file dir))

(* One warm pass: [rounds] rounds, each serving every unit from [cache]
   with [run_to_dir] into [out]; [expected] holds each unit's table
   digests from the fill.  Returns the pass, with one time and one count
   vector per serve, and every unit's tables. *)
let warm_pass ~cache ~out ~units ~expected ~rounds =
  let sums = Tally.sums () in
  let hits0 = Result_cache.hits cache and misses0 = Result_cache.misses cache in
  let problems = ref [] in
  let serve name =
    match
      Spans.with_span "unit" (fun () ->
          Tally.guard name (fun () ->
              timed_in sums "run_to_dir" (fun () ->
                  Experiments.run_to_dir ~quick ~cache ~now
                    ~dir:(Filename.concat out name) ~jobs:1 name)))
    with
    | Ok (Some (_, tables), s) ->
      let d = digests tables in
      if Some d <> List.assoc_opt name expected then
        problems := (name ^ ": warm tables differ from cold") :: !problems;
      (name, s, d, tables)
    | Ok (None, _) ->
      problems := (name ^ ": unknown experiment") :: !problems;
      (name, 0., "error", [])
    | Error m ->
      problems := m :: !problems;
      (name, 0., "error", [])
  in
  let t0 = Spans.now_ns () in
  let served = List.concat (List.init rounds (fun _ -> List.map serve units)) in
  let wall_s = Spans.since t0 in
  let misses = Result_cache.misses cache - misses0 in
  Tally.add sums "core.cache.hits" (float_of_int (Result_cache.hits cache - hits0));
  Tally.add sums "core.cache.misses" (float_of_int misses);
  if misses > 0 then
    problems := Printf.sprintf "cache: %d warm misses" misses :: !problems;
  ( {
      Tally.wall_s;
      unit_s = List.map (fun (_, s, _, _) -> s) served;
      vectors = List.map (fun (n, _, d, _) -> (n, d)) served;
      problems = !problems;
      sums;
    },
    List.filteri (fun i _ -> i < List.length units) (List.map (fun (n, _, _, t) -> (n, t)) served) )

(* Direct calls on the units' tables, for the traced run's layer
   numbers: digest every table, store each unit into a fresh cache at
   [dir], look it back up. *)
let probe ~dir tables =
  let sums = Tally.sums () in
  let cache = Result_cache.create ~dir () in
  let problems = ref [] in
  List.iter
    (fun (name, ts) ->
      List.iter
        (fun t -> ignore (timed_in sums "table.digest" (fun () -> Manifest.table_digest t)))
        ts;
      let key =
        Result_cache.key cache ~experiment:name ~quick
          ~params:(Experiments.params ~quick name)
      in
      ignore
        (timed_in sums "cache.store" (fun () ->
             Result_cache.store cache ~key ~experiment:name ~quick ts));
      match fst (timed_in sums "cache.lookup" (fun () -> Result_cache.lookup cache ~key)) with
      | Some back when digests back = digests ts -> ()
      | _ -> problems := (name ^ ": stored tables did not come back") :: !problems)
    tables;
  (sums, !problems)

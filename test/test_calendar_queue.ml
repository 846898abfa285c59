(* Calendar-queue unit tests plus an equivalence suite against
   [Event_heap], a binary heap kept under test/ as the oracle: both
   queues must pop the same (time, id) stream in the identical order,
   FIFO ties included.  Keyed entries, the SoA RTO wheel's layout, are
   checked against a model, and so is [Sim.run ~until]. *)

module Cq = Engine.Calendar_queue
module Eh = Event_heap

let check_float = Alcotest.(check (float 1e-9))

let test_empty () =
  let q = Cq.create () in
  Alcotest.(check bool) "empty" true (Cq.is_empty q);
  Alcotest.(check int) "size" 0 (Cq.size q);
  Alcotest.(check bool) "pop none" true (Cq.pop q = None);
  Alcotest.(check bool) "peek none" true (Cq.peek_time q = None);
  Alcotest.(check bool) "min_time empty is nan" true
    (Float.is_nan (Cq.min_time q));
  Alcotest.check_raises "take empty"
    (Invalid_argument "Calendar_queue.take: empty queue") (fun () ->
      ignore (Cq.take q))

let test_ordering () =
  let q = Cq.create () in
  List.iter (fun t -> Cq.add q ~time:t t) [ 5.; 1.; 3.; 2.; 4. ];
  let rec drain acc =
    match Cq.pop q with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] (drain [])

let test_fifo_ties () =
  let q = Cq.create () in
  List.iter (fun v -> Cq.add q ~time:1. v) [ "a"; "b"; "c" ];
  Cq.add q ~time:0.5 "first";
  let pop () =
    match Cq.pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "unexpected empty queue"
  in
  Alcotest.(check string) "earliest" "first" (pop ());
  Alcotest.(check string) "fifo a" "a" (pop ());
  Alcotest.(check string) "fifo b" "b" (pop ());
  Alcotest.(check string) "fifo c" "c" (pop ())

let test_take_min_time () =
  let q = Cq.create () in
  List.iter
    (fun (t, v) -> Cq.add q ~time:t v)
    [ (2., "b"); (1., "a"); (3., "c") ];
  check_float "min_time" 1. (Cq.min_time q);
  Alcotest.(check string) "take min" "a" (Cq.take q);
  check_float "min_time after take" 2. (Cq.min_time q);
  Alcotest.(check string) "take next" "b" (Cq.take q);
  Alcotest.(check string) "take last" "c" (Cq.take q);
  Alcotest.(check bool) "empty again" true (Cq.is_empty q)

let test_rejects_bad_times () =
  let q = Cq.create () in
  let exn =
    Invalid_argument "Calendar_queue.add: time must be finite and non-negative"
  in
  Alcotest.check_raises "nan" exn (fun () -> Cq.add q ~time:Float.nan ());
  Alcotest.check_raises "inf" exn (fun () -> Cq.add q ~time:Float.infinity ());
  Alcotest.check_raises "negative" exn (fun () -> Cq.add q ~time:(-1.) ())

let test_clear () =
  let q = Cq.create () in
  for i = 1 to 100 do
    Cq.add q ~time:(float_of_int i *. 0.25) i
  done;
  Cq.clear q;
  Alcotest.(check bool) "cleared" true (Cq.is_empty q);
  (* Reusable after clear. *)
  Cq.add q ~time:2. 2;
  Cq.add q ~time:1. 1;
  Alcotest.(check int) "first after clear" 1 (Cq.take q);
  Alcotest.(check int) "second after clear" 2 (Cq.take q)

let test_resize_grows_and_shrinks () =
  let q = Cq.create () in
  let nb0 = Cq.buckets q in
  for i = 0 to 9999 do
    Cq.add q ~time:(float_of_int i *. 1e-4) i
  done;
  Alcotest.(check bool) "buckets grew" true (Cq.buckets q > nb0);
  Alcotest.(check bool) "width adapted" true (Cq.width q > 0.);
  let prev = ref (-1.) in
  for i = 0 to 9999 do
    let t = Cq.min_time q in
    Alcotest.(check bool) "monotone" true (t >= !prev);
    prev := t;
    let v = Cq.take q in
    Alcotest.(check int) "payload order survives resizes" i v
  done;
  Alcotest.(check bool) "buckets shrank back" true (Cq.buckets q <= nb0 * 2)

let test_sparse_horizon () =
  (* Events much farther apart than a bucket year: the direct-search
     fallback must still find the minimum. *)
  let q = Cq.create () in
  List.iter
    (fun t -> Cq.add q ~time:t t)
    [ 1000.; 0.001; 500.; 0.002; 250. ];
  let rec drain acc =
    match Cq.pop q with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  Alcotest.(check (list (float 0.)))
    "sparse sorted"
    [ 0.001; 0.002; 250.; 500.; 1000. ]
    (drain [])

(* Drive both queues with one randomized (add | pop) stream obeying the
   simulator's contract (never add behind the last popped time), with
   times quantized so FIFO ties are frequent, and assert identical pop
   sequences.  Half the pops are a [min_time] then a [take], the way
   [Sim.run] drains, and some adds follow a [min_time]: the search a peek
   caches must serve the next take and no later one. *)
let equivalence_run ~seed ~ops ~quantum =
  let st = Random.State.make [| seed |] in
  let h = Eh.create () in
  let c = Cq.create () in
  let last = ref 0. in
  let next_id = ref 0 in
  let check (th, vh) (tc, vc) =
    if th <> tc || vh <> vc then
      Alcotest.failf "pop mismatch: heap (%g, %d) vs calendar (%g, %d)" th vh
        tc vc;
    last := th
  in
  let check_pop () =
    if Random.State.bool st && not (Eh.is_empty h || Cq.is_empty c) then begin
      let th = Eh.min_time h and tc = Cq.min_time c in
      let vh = Eh.take h in
      check (th, vh) (tc, Cq.take c)
    end
    else
      match (Eh.pop h, Cq.pop c) with
      | None, None -> ()
      | Some ph, Some pc -> check ph pc
      | Some _, None -> Alcotest.fail "calendar empty while heap is not"
      | None, Some _ -> Alcotest.fail "heap empty while calendar is not"
  in
  for _ = 1 to ops do
    if Random.State.int st 4 = 0 && not (Eh.is_empty h) then
      if Eh.min_time h <> Cq.min_time c then
        Alcotest.failf "peek mismatch: heap %g vs calendar %g" (Eh.min_time h)
          (Cq.min_time c);
    if Random.State.int st 3 < 2 || Eh.is_empty h then begin
      let dt = float_of_int (Random.State.int st 50) *. quantum in
      let time = !last +. dt in
      let id = !next_id in
      incr next_id;
      Eh.add h ~time id;
      Cq.add c ~time id
    end
    else check_pop ();
    if Eh.size h <> Cq.size c then Alcotest.fail "size mismatch"
  done;
  while not (Eh.is_empty h) || not (Cq.is_empty c) do
    check_pop ()
  done

let test_equivalence_dense () = equivalence_run ~seed:7 ~ops:20_000 ~quantum:1e-4

let test_equivalence_ties () =
  (* quantum 0 degenerates every add to the same timestamp: a pure FIFO
     stress across resizes. *)
  equivalence_run ~seed:11 ~ops:5_000 ~quantum:0.

let test_equivalence_sparse () =
  equivalence_run ~seed:13 ~ops:5_000 ~quantum:10.

let prop_equivalence =
  QCheck2.Test.make ~name:"calendar pops exactly like heap" ~count:50
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 1_000))
    (fun (seed, ops) ->
      equivalence_run ~seed ~ops ~quantum:1e-3;
      true)

(* [Sim.run ~until] against a model: the events at or before [until] run
   in stable time order (insertion order at equal times), later ones stay
   queued, and the clock parks at [until] whether or not the queue
   drained. *)
let prop_sim_parks_identically =
  QCheck2.Test.make ~name:"Sim.run ~until parks clock identically" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 50)
           (map (fun k -> float_of_int k *. 0.05) (int_range 0 400)))
        (map (fun k -> float_of_int k *. 0.05) (int_range 0 500)))
    (fun (times, until) ->
      let sim = Engine.Sim.create () in
      let order = ref [] in
      List.iteri
        (fun i t -> Engine.Sim.at sim t (fun () -> order := i :: !order))
        times;
      Engine.Sim.run ~until sim;
      let expected =
        List.mapi (fun i t -> (t, i)) times
        |> List.filter (fun (t, _) -> t <= until)
        |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
        |> List.map snd
      in
      Engine.Sim.now sim = until
      && Engine.Sim.events_processed sim = List.length expected
      && List.rev !order = expected)

(* --- timer cancellation at bucket boundaries ----------------------- *)

(* Sim-level cancellation is lazy (tombstones pop and are skipped), so a
   disarm/rearm storm leaves dead entries sitting exactly where resizes
   move buckets around.  Run a timer program — arming at dyadic times
   that land on bucket edges, with a load spike to force a grow and a
   drain to force the shrink back — and require the event count and
   firing log recorded when [Sim] could still run on [Event_heap]; the
   heap and the calendar queue both produced them. *)
let timer_program () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let n = 8 in
  let timers =
    Array.init n (fun i ->
        Engine.Sim.timer sim (fun () ->
            log := (i, Engine.Sim.now sim) :: !log))
  in
  let q = 1. /. 1024. in
  (* Load spike: thousands of events on a dyadic lattice, each one
     toggling a timer — rearming moves entries across bucket edges while
     the ring is growing. *)
  for k = 1 to 4000 do
    Engine.Sim.at sim
      (float_of_int k *. q)
      (fun () ->
        let i = k mod n in
        if Engine.Sim.timer_armed timers.(i) then Engine.Sim.disarm timers.(i)
        else
          Engine.Sim.arm_after timers.(i)
            (float_of_int ((k land 7) + 1) *. q))
  done;
  (* Sparse tail after the spike: the ring shrinks while late-armed
     timers are still pending. *)
  for k = 0 to 7 do
    Engine.Sim.at sim
      (8. +. float_of_int k)
      (fun () -> Engine.Sim.arm_at timers.(k) (16. +. float_of_int k))
  done;
  Engine.Sim.run sim;
  (Engine.Sim.events_processed sim, List.rev !log)

let test_timer_cancellation_equivalence () =
  let events, log = timer_program () in
  Alcotest.(check bool) "timers actually fired" true (List.length log > 100);
  Alcotest.(check int) "events" 7766 events;
  Alcotest.(check int) "firings" 3508 (List.length log);
  let text =
    String.concat ""
      (List.map (fun (i, t) -> Printf.sprintf "%d %h\n" i t) log)
  in
  Alcotest.(check string)
    "firing log digest" "fe72949b15a0d62fc52141f6ac87dcb6"
    (Digest.to_hex (Digest.string text))

let test_disarm_on_bucket_edge_never_fires () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let tm = Engine.Sim.timer sim (fun () -> fired := true) in
  (* Arm exactly on a dyadic bucket edge, then grow the ring past it with
     a burst of later events before cancelling. *)
  Engine.Sim.arm_at tm 1.;
  for k = 1 to 5000 do
    Engine.Sim.at sim (2. +. (float_of_int k /. 512.)) (fun () -> ())
  done;
  Engine.Sim.at sim 0.5 (fun () -> Engine.Sim.disarm tm);
  Engine.Sim.run sim;
  Alcotest.(check bool) "cancelled alarm silent" false !fired;
  Alcotest.(check bool) "disarmed" false (Engine.Sim.timer_armed tm)

let test_rearm_same_instant_fifo () =
  (* Disarm + rearm at the same timestamp: the lazy-cancel guard keys on
     [deadline = now], which cannot tell the stale entry from the rearm,
     so the timer fires exactly once at its *original* FIFO position —
     before events queued in between — and the rearm's own entry no-ops. *)
  let sim = Engine.Sim.create () in
  let order = ref [] in
  let tm = Engine.Sim.timer sim (fun () -> order := "timer" :: !order) in
  Engine.Sim.arm_at tm 1.;
  Engine.Sim.at sim 0.5 (fun () ->
      Engine.Sim.disarm tm;
      Engine.Sim.at sim 1. (fun () -> order := "plain" :: !order);
      Engine.Sim.arm_at tm 1.);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "fires once, original position"
    [ "timer"; "plain" ] (List.rev !order)

(* The stub's contract; the benchmark's environment guard accepts
   [SLOWCC_SCHED] only when it parses to [Calendar]. *)
let test_scheduler_strings () =
  Alcotest.(check string) "calendar" "calendar"
    (Engine.Scheduler.to_string Engine.Scheduler.Calendar);
  Alcotest.(check bool) "parse calendar" true
    (Engine.Scheduler.of_string "calendar" = Some Engine.Scheduler.Calendar);
  Alcotest.(check bool) "parse cal" true
    (Engine.Scheduler.of_string "cal" = Some Engine.Scheduler.Calendar);
  Alcotest.(check bool) "heap is gone" true
    (Engine.Scheduler.of_string "heap" = None)

(* Explicit sequence numbers, mirrored from the heap: burned-seq order
   must survive bucket placement and resizes. *)
let test_explicit_seq_order () =
  let q = Cq.create () in
  let s1 = Cq.alloc_seq q in
  let s2 = Cq.alloc_seq q in
  Cq.add_with_seq q ~time:1. ~seq:s2 "second";
  Cq.add q ~time:1. "third";
  Cq.add_with_seq q ~time:1. ~seq:s1 "first";
  Alcotest.(check int) "min_key" s1 (Cq.min_key q);
  let pop () =
    match Cq.pop q with
    | Some (_, v) -> v
    | None -> Alcotest.fail "unexpected empty queue"
  in
  Alcotest.(check string) "seq order 1" "first" (pop ());
  Alcotest.(check string) "seq order 2" "second" (pop ());
  Alcotest.(check string) "seq order 3" "third" (pop ())

let test_explicit_seq_validation () =
  let q = Cq.create () in
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Calendar_queue.add_with_seq: negative seq") (fun () ->
      Cq.add_with_seq q ~time:1. ~seq:(-1) ());
  Alcotest.check_raises "min_key empty"
    (Invalid_argument "Calendar_queue.min_key: empty queue") (fun () ->
      ignore (Cq.min_key q))

let test_explicit_seq_across_resize () =
  (* Foreign seqs (a second queue's counter, as the wheel does with the
     simulator's) stay FIFO-consistent through grow and shrink. *)
  let master = Cq.create () in
  let q = Cq.create () in
  let n = 5000 in
  for i = 0 to n - 1 do
    let seq = Cq.alloc_seq master in
    Cq.add_with_seq q ~time:(float_of_int (i mod 7)) ~seq i
  done;
  let last = ref (-1., -1) in
  for _ = 1 to n do
    let tm = Cq.min_time q in
    let sm = Cq.min_key q in
    if (tm, sm) <= !last then Alcotest.fail "pop order not (time, seq)";
    last := (tm, sm);
    ignore (Cq.take q)
  done;
  Alcotest.(check bool) "drained" true (Cq.is_empty q)

(* --- keyed entries --------------------------------------------------- *)

(* Keys as the SoA RTO wheel packs them: a unique seq above a 20-bit
   flow index. *)
let flow_bits = 20
let flow_mask = (1 lsl flow_bits) - 1
let pack ~seq flow = (seq lsl flow_bits) lor flow

let test_keyed_order () =
  let q : unit Cq.t = Cq.create () in
  Alcotest.(check bool) "fresh empty" true (Cq.is_empty q);
  (* Insertion order deliberately scrambled; seqs are unique and
     monotone within each time, as Sim.alloc_seq guarantees. *)
  let entries =
    [ (0.5, 3, 1); (0.25, 1, 0); (0.5, 2, 7); (1.0, 4, 2); (0.25, 0, 5) ]
  in
  List.iter
    (fun (time, seq, flow) -> Cq.add_key q ~time ~key:(pack ~seq flow))
    entries;
  Alcotest.(check int) "size" 5 (Cq.size q);
  let popped = ref [] in
  while not (Cq.is_empty q) do
    let tm = Cq.min_time q in
    let sq = Cq.min_key q lsr flow_bits in
    popped := (tm, sq, Cq.take_key q land flow_mask) :: !popped
  done;
  Alcotest.(check bool)
    "pops in (time, seq) order" true
    (List.rev !popped
    = [ (0.25, 0, 5); (0.25, 1, 0); (0.5, 2, 7); (0.5, 3, 1); (1.0, 4, 2) ])

let test_keyed_filter () =
  let q : unit Cq.t = Cq.create () in
  for i = 0 to 99 do
    Cq.add_key q ~time:(float_of_int (i mod 10) *. 0.1) ~key:(pack ~seq:i i)
  done;
  (* Keep only flows under 50 — mimics sweeping stale entries. *)
  Cq.filter q ~keep:(fun ~key ~time:_ -> key land flow_mask < 50);
  Alcotest.(check int) "filtered size" 50 (Cq.size q);
  let last = ref (-1., -1) in
  while not (Cq.is_empty q) do
    let tm = Cq.min_time q in
    let sq = Cq.min_key q lsr flow_bits in
    let fl = Cq.take_key q land flow_mask in
    Alcotest.(check bool) "survivor" true (fl < 50);
    Alcotest.(check bool) "order preserved" true ((tm, sq) > !last);
    last := (tm, sq)
  done

let test_keyed_validation () =
  let q : unit Cq.t = Cq.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument
       "Calendar_queue.add_key: time must be finite and non-negative")
    (fun () -> Cq.add_key q ~time:(-1.) ~key:0);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Calendar_queue.add_key: negative key") (fun () ->
      Cq.add_key q ~time:0. ~key:(-1));
  Alcotest.check_raises "take_key empty"
    (Invalid_argument "Calendar_queue.take_key: empty queue") (fun () ->
      ignore (Cq.take_key q))

(* A keyed entry has no value slot to read: [take] of one returns [()],
   whether or not the queue has stored a value yet. *)
let test_keyed_and_valued_mix () =
  let q : unit Cq.t = Cq.create () in
  Cq.add_key q ~time:1. ~key:7;
  Cq.take q;
  Alcotest.(check bool) "drained" true (Cq.is_empty q);
  Cq.add q ~time:2. ();
  Cq.add_key q ~time:0.5 ~key:3;
  Cq.add_key q ~time:3. ~key:9;
  Alcotest.(check int) "keyed first" 3 (Cq.take_key q);
  check_float "valued next" 2. (Cq.min_time q);
  Cq.take q;
  Cq.take q;
  Alcotest.(check bool) "empty" true (Cq.is_empty q)

(* Random interleavings of add_key, take_key and filter against a
   sorted-list model.  Times are quantized so exact-time ties are
   frequent; keys pack unique, increasing seqs above random flows. *)
let keyed_model_run ~seed ~ops =
  let st = Random.State.make [| seed |] in
  let q : unit Cq.t = Cq.create () in
  let model = ref [] in
  let last = ref 0. in
  let next_seq = ref 0 in
  let quantum = 1. /. 64. in
  let take () =
    match !model with
    | [] -> Alcotest.fail "take on an empty model"
    | (tm, k) :: rest ->
      let qt = Cq.min_time q and qk = Cq.min_key q in
      let popped = Cq.take_key q in
      if qt <> tm || qk <> k || popped <> k then
        Alcotest.failf "pop mismatch: queue (%g, %d) vs model (%g, %d)" qt
          popped tm k;
      last := tm;
      model := rest
  in
  for _ = 1 to ops do
    (match Random.State.int st 20 with
    | 0 ->
      let m = 2 + Random.State.int st 4 in
      let keep ~key ~time =
        ((key land flow_mask) + int_of_float (time /. quantum)) mod m <> 0
      in
      Cq.filter q ~keep;
      model := List.filter (fun (time, key) -> keep ~key ~time) !model
    | k when k < 12 || !model = [] ->
      let time =
        !last +. (float_of_int (Random.State.int st 16) *. quantum)
      in
      let key = pack ~seq:!next_seq (Random.State.int st (flow_mask + 1)) in
      incr next_seq;
      Cq.add_key q ~time ~key;
      model := List.merge compare [ (time, key) ] !model
    | _ -> take ());
    if Cq.size q <> List.length !model then Alcotest.fail "size mismatch"
  done;
  while !model <> [] do
    take ()
  done;
  Alcotest.(check bool) "queue drained with the model" true (Cq.is_empty q)

let prop_keyed_model =
  QCheck2.Test.make ~name:"keyed entries pop like a sorted list" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 2_000))
    (fun (seed, ops) ->
      keyed_model_run ~seed ~ops;
      true)

(* Keyed entries never allocate the value array, one word per pool
   slot.  Without this, a queue of 10^5 RTO-wheel entries pays a fourth
   pool array. *)
let test_keyed_memory () =
  let keyed : unit Cq.t = Cq.create () in
  let valued : unit Cq.t = Cq.create () in
  for i = 0 to 999 do
    let time = float_of_int i *. 1e-3 in
    Cq.add_key keyed ~time ~key:i;
    Cq.add valued ~time ()
  done;
  let words q = Obj.reachable_words (Obj.repr q) in
  let wk = words keyed and wv = words valued in
  if wk + 1000 > wv then
    Alcotest.failf "keyed queue reaches %d words, valued %d" wk wv

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "explicit seq order" `Quick test_explicit_seq_order;
    Alcotest.test_case "explicit seq validation" `Quick
      test_explicit_seq_validation;
    Alcotest.test_case "explicit seq across resize" `Quick
      test_explicit_seq_across_resize;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
    Alcotest.test_case "take and min_time" `Quick test_take_min_time;
    Alcotest.test_case "rejects bad times" `Quick test_rejects_bad_times;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "resize policy" `Quick test_resize_grows_and_shrinks;
    Alcotest.test_case "sparse horizon fallback" `Quick test_sparse_horizon;
    Alcotest.test_case "equivalence: dense" `Quick test_equivalence_dense;
    Alcotest.test_case "equivalence: all ties" `Quick test_equivalence_ties;
    Alcotest.test_case "equivalence: sparse" `Quick test_equivalence_sparse;
    QCheck_alcotest.to_alcotest prop_equivalence;
    QCheck_alcotest.to_alcotest prop_sim_parks_identically;
    Alcotest.test_case "timer cancel/rearm equivalence" `Quick
      test_timer_cancellation_equivalence;
    Alcotest.test_case "disarm on bucket edge" `Quick
      test_disarm_on_bucket_edge_never_fires;
    Alcotest.test_case "rearm at same instant is FIFO" `Quick
      test_rearm_same_instant_fifo;
    Alcotest.test_case "Scheduler string round-trip" `Quick
      test_scheduler_strings;
    Alcotest.test_case "keyed (time, seq) order" `Quick test_keyed_order;
    Alcotest.test_case "keyed filter" `Quick test_keyed_filter;
    Alcotest.test_case "keyed validation" `Quick test_keyed_validation;
    Alcotest.test_case "keyed and valued entries mix" `Quick
      test_keyed_and_valued_mix;
    QCheck_alcotest.to_alcotest prop_keyed_model;
    Alcotest.test_case "keyed entries skip the value array" `Quick
      test_keyed_memory;
  ]

(* Unit and property tests for the event heap. *)

let check_float = Alcotest.(check (float 1e-9))

let test_empty () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h);
  Alcotest.(check int) "size" 0 (Event_heap.size h);
  Alcotest.(check bool) "pop none" true (Event_heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Event_heap.peek_time h = None)

let test_ordering () =
  let h = Event_heap.create () in
  List.iter
    (fun t -> Event_heap.add h ~time:t t)
    [ 5.; 1.; 3.; 2.; 4. ];
  let rec drain acc =
    match Event_heap.pop h with
    | None -> List.rev acc
    | Some (t, _) -> drain (t :: acc)
  in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] (drain [])

let test_fifo_ties () =
  let h = Event_heap.create () in
  List.iter (fun v -> Event_heap.add h ~time:1. v) [ "a"; "b"; "c" ];
  Event_heap.add h ~time:0.5 "first";
  let pop () =
    match Event_heap.pop h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "unexpected empty heap"
  in
  Alcotest.(check string) "earliest" "first" (pop ());
  Alcotest.(check string) "fifo a" "a" (pop ());
  Alcotest.(check string) "fifo b" "b" (pop ());
  Alcotest.(check string) "fifo c" "c" (pop ())

let test_peek () =
  let h = Event_heap.create () in
  Event_heap.add h ~time:7. ();
  Event_heap.add h ~time:3. ();
  (match Event_heap.peek_time h with
  | Some t -> check_float "peek min" 3. t
  | None -> Alcotest.fail "peek");
  Alcotest.(check int) "peek does not remove" 2 (Event_heap.size h)

let test_clear () =
  let h = Event_heap.create () in
  for i = 1 to 10 do
    Event_heap.add h ~time:(float_of_int i) i
  done;
  Event_heap.clear h;
  Alcotest.(check bool) "cleared" true (Event_heap.is_empty h)

let test_take_min_time () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "min_time empty is nan" true
    (Float.is_nan (Event_heap.min_time h));
  Alcotest.check_raises "take empty" (Invalid_argument "Event_heap.take: empty heap")
    (fun () -> ignore (Event_heap.take h));
  List.iter
    (fun (t, v) -> Event_heap.add h ~time:t v)
    [ (2., "b"); (1., "a"); (3., "c") ];
  check_float "min_time" 1. (Event_heap.min_time h);
  Alcotest.(check string) "take min" "a" (Event_heap.take h);
  check_float "min_time after take" 2. (Event_heap.min_time h);
  Alcotest.(check string) "take next" "b" (Event_heap.take h);
  Alcotest.(check string) "take last" "c" (Event_heap.take h);
  Alcotest.(check bool) "empty again" true (Event_heap.is_empty h)

let test_float_payloads () =
  (* Payloads of any type, including floats, survive the uniform value
     array underneath. *)
  let h = Event_heap.create () in
  List.iter (fun t -> Event_heap.add h ~time:t (t *. 10.)) [ 3.; 1.; 2. ];
  Alcotest.(check (list (float 0.)))
    "float values in order" [ 10.; 20.; 30. ]
    (List.init 3 (fun _ -> Event_heap.take h))

let test_rejects_nan () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.add: non-finite time")
    (fun () -> Event_heap.add h ~time:Float.nan ())

let test_growth () =
  let h = Event_heap.create () in
  for i = 1000 downto 1 do
    Event_heap.add h ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "size" 1000 (Event_heap.size h);
  (match Event_heap.pop h with
  | Some (t, _) -> check_float "min after growth" 1. t
  | None -> Alcotest.fail "pop")

let prop_pop_sorted =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list (float_range 0. 1000.))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.add h ~time:t t) times;
      let rec drain acc =
        match Event_heap.pop h with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

let prop_size_tracks =
  QCheck2.Test.make ~name:"heap size tracks adds and pops" ~count:100
    QCheck2.Gen.(list (float_range 0. 10.))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.add h ~time:t ()) times;
      let n = List.length times in
      let ok_after_add = Event_heap.size h = n in
      let rec pop_k k = if k > 0 then begin ignore (Event_heap.pop h); pop_k (k - 1) end in
      let half = n / 2 in
      pop_k half;
      ok_after_add && Event_heap.size h = n - half)

(* Explicit sequence numbers: the aggregating RTO wheel burns seqs with
   [alloc_seq] and inserts them later with [add_with_seq]; at equal
   timestamps entries must pop in burned-seq order regardless of the
   order the inserts actually happened. *)
let test_explicit_seq_order () =
  let h = Event_heap.create () in
  let s1 = Event_heap.alloc_seq h in
  let s2 = Event_heap.alloc_seq h in
  Event_heap.add_with_seq h ~time:1. ~seq:s2 "second";
  Event_heap.add h ~time:1. "third";
  Event_heap.add_with_seq h ~time:1. ~seq:s1 "first";
  Alcotest.(check int) "min_seq" s1 (Event_heap.min_seq h);
  let pop () =
    match Event_heap.pop h with
    | Some (_, v) -> v
    | None -> Alcotest.fail "unexpected empty heap"
  in
  Alcotest.(check string) "seq order 1" "first" (pop ());
  Alcotest.(check string) "seq order 2" "second" (pop ());
  Alcotest.(check string) "seq order 3" "third" (pop ())

let test_explicit_seq_rejects_unallocated () =
  let h = Event_heap.create () in
  Alcotest.check_raises "unallocated"
    (Invalid_argument "Event_heap.add_with_seq: seq was not allocated")
    (fun () -> Event_heap.add_with_seq h ~time:1. ~seq:7 ());
  Alcotest.check_raises "min_seq empty"
    (Invalid_argument "Event_heap.min_seq: empty heap") (fun () ->
      ignore (Event_heap.min_seq h))

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "explicit seq order" `Quick test_explicit_seq_order;
    Alcotest.test_case "explicit seq validation" `Quick
      test_explicit_seq_rejects_unallocated;
    Alcotest.test_case "time ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO tie-break" `Quick test_fifo_ties;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "take and min_time" `Quick test_take_min_time;
    Alcotest.test_case "float payloads" `Quick test_float_payloads;
    Alcotest.test_case "rejects NaN" `Quick test_rejects_nan;
    Alcotest.test_case "growth" `Quick test_growth;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_size_tracks;
  ]

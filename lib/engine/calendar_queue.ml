(* ns-2-style calendar queue: a bucketed timer ring with automatic resize.

   Events live in pooled nodes held in parallel arrays ([times]/[keys]/
   [vals]/[nexts]) and linked into per-bucket sorted lists by index, so
   steady-state add/take touches no allocator at all.  Each bucket covers
   a [width]-second window of the virtual clock; bucket [n land mask]
   holds events with [floor (time / width) = n].  Dequeue scans one
   calendar "year" (every bucket once) from the cursor; if nothing lies
   inside its own window the minimum is found by direct search, exactly
   as ns-2's scheduler does for sparse horizons.  The bucket a search
   finds is kept until the next insert or remove, so [min_time] followed
   by [take] searches once.

   Ordering is lexicographic on (time, key).  For [add]ed values the key
   is the queue's insertion counter, so values added at equal timestamps
   pop first in, first out.  Equal times always hash to the same bucket,
   and bucket lists are kept sorted by (time, key), which makes the
   tie-break exact rather than approximate.

   Keyed entries ([add_key]) carry no value: the key is the whole
   payload.  [vals] stays [[||]] until the first insert that carries a
   value, so a queue of keyed entries costs three pool arrays (24 B per
   node) instead of four.  Keyed entries are only allowed in a [unit t],
   which is what makes reading a payload-free node as [()] sound.

   The structure assumes the simulator's contract: times are finite,
   non-negative, and never earlier than the last dequeued time.  Earlier
   inserts are still handled correctly (the cursor moves back), they are
   just slower. *)

type 'a t = {
  (* node pool *)
  mutable times : float array;
  mutable keys : int array;
  mutable vals : Obj.t array;  (* [||] until a value is stored *)
  mutable nexts : int array;
  mutable free : int;  (* free-list head, -1 when the pool is full *)
  (* calendar *)
  mutable buckets : int array;  (* per-bucket list head, -1 when empty *)
  mutable mask : int;  (* nbuckets - 1; nbuckets is a power of two *)
  mutable width : float;  (* seconds covered by one bucket *)
  mutable cur : int;  (* absolute bucket number of the search cursor *)
  mutable size : int;
  mutable next_seq : int;
  mutable found : int;
      (* bucket holding the minimum, as the last search left [cur]; -1
         once an insert or remove may have moved it.  Lets [take] reuse
         the search [min_time] just made: one search per event. *)
  staging : floatarray;  (* unboxed hand-off slot for [insert_staged] *)
  (* Last (time, key) handed out by [take]/[take_key]; only read/written
     under [Audit.invariants_on] to assert (time, insertion-order) pop
     order. *)
  mutable last_pop_time : float;
  mutable last_pop_key : int;
}

let dummy : Obj.t = Obj.repr ()
let initial_nodes = 8
let initial_buckets = 8
let min_buckets = 8

let create () =
  {
    times = [||];
    keys = [||];
    vals = [||];
    nexts = [||];
    free = -1;
    buckets = Array.make initial_buckets (-1);
    mask = initial_buckets - 1;
    width = 0.01;
    cur = 0;
    size = 0;
    next_seq = 0;
    found = -1;
    staging = Float.Array.create 1;
    last_pop_time = Float.neg_infinity;
    last_pop_key = -1;
  }

let is_empty t = t.size = 0
let size t = t.size

(* Number of buckets currently in the ring (introspection / tests). *)
let buckets t = t.mask + 1
let width t = t.width

let grow_pool t =
  let cap = Array.length t.times in
  let new_cap = if cap = 0 then initial_nodes else cap * 2 in
  let times = Array.make new_cap 0. in
  let keys = Array.make new_cap 0 in
  let nexts = Array.make new_cap (-1) in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.nexts 0 nexts 0 cap;
  (* [vals], once it exists, stays as long as the pool. *)
  if Array.length t.vals > 0 then begin
    let vals = Array.make new_cap dummy in
    Array.blit t.vals 0 vals 0 cap;
    t.vals <- vals
  end;
  (* Chain the new slots into the free list. *)
  for i = cap to new_cap - 2 do
    nexts.(i) <- i + 1
  done;
  nexts.(new_cap - 1) <- t.free;
  t.free <- cap;
  t.times <- times;
  t.keys <- keys;
  t.nexts <- nexts

(* Absolute bucket number of [time] under the current width. *)
let[@inline] bucket_number t time = int_of_float (time /. t.width)

(* Insert node [n] (fields already set) into its bucket's sorted list. *)
let insert_node t n =
  let time = Array.unsafe_get t.times n in
  let key = Array.unsafe_get t.keys n in
  let bn = bucket_number t time in
  if bn < t.cur then t.cur <- bn;
  let b = bn land t.mask in
  let head = Array.unsafe_get t.buckets b in
  if
    head < 0
    || time < Array.unsafe_get t.times head
    || (time = Array.unsafe_get t.times head
        && key < Array.unsafe_get t.keys head)
  then begin
    Array.unsafe_set t.nexts n head;
    Array.unsafe_set t.buckets b n
  end
  else begin
    (* Walk to the last node that precedes [n]. *)
    let prev = ref head in
    let continue_ = ref true in
    while !continue_ do
      let nx = Array.unsafe_get t.nexts !prev in
      if nx < 0 then continue_ := false
      else begin
        let tx = Array.unsafe_get t.times nx in
        if tx < time || (tx = time && Array.unsafe_get t.keys nx < key) then
          prev := nx
        else continue_ := false
      end
    done;
    Array.unsafe_set t.nexts n (Array.unsafe_get t.nexts !prev);
    Array.unsafe_set t.nexts !prev n
  end

(* Estimate a bucket width from the event-time distribution: three times
   the average separation of the ~32 earliest events (ns-2 samples near
   the head of the queue for the same reason — far-future stragglers must
   not stretch the buckets that the dense near-term traffic lives in). *)
let estimate_width t live =
  let n = Array.length live in
  if n < 2 then t.width
  else begin
    Array.sort Float.compare live;
    let k = min n 32 in
    let front = live.(k - 1) -. live.(0) in
    let gap =
      if front > 0. then front /. float_of_int (k - 1)
      else begin
        (* The earliest events are all simultaneous; fall back to the
           full range. *)
        let range = live.(n - 1) -. live.(0) in
        if range > 0. then range /. float_of_int n else 0.
      end
    in
    if gap > 0. then Float.max 1e-12 (3. *. gap) else t.width
  end

(* Rebuild the ring with [nb] buckets and a freshly estimated width.
   O(size); called when the event count crosses 2x or 0.5x the bucket
   count, so the amortized cost per operation is O(1). *)
let resize t nb =
  let live = Array.make t.size 0. in
  let nodes = Array.make t.size 0 in
  let j = ref 0 in
  Array.iter
    (fun head ->
      let n = ref head in
      while !n >= 0 do
        live.(!j) <- Array.unsafe_get t.times !n;
        nodes.(!j) <- !n;
        incr j;
        n := Array.unsafe_get t.nexts !n
      done)
    t.buckets;
  t.width <- estimate_width t live;
  t.buckets <- Array.make nb (-1);
  t.mask <- nb - 1;
  (* live is now sorted (estimate_width sorts it); reposition the cursor
     at the earliest event so the scan invariant [cur <= min bucket]
     holds. *)
  t.cur <- (if t.size = 0 then 0 else bucket_number t live.(0));
  Array.iter (fun n -> insert_node t n) nodes

(* The one insert path.  The time arrives through [staging], so an
   inlined caller hands it over unboxed; returns the new node. *)
let[@inline] insert_staged t key =
  let time = Float.Array.unsafe_get t.staging 0 in
  t.found <- -1;
  if t.free < 0 then grow_pool t;
  let n = t.free in
  t.free <- Array.unsafe_get t.nexts n;
  Array.unsafe_set t.times n time;
  Array.unsafe_set t.keys n key;
  insert_node t n;
  t.size <- t.size + 1;
  if t.size > 2 * (t.mask + 1) then resize t (2 * (t.mask + 1));
  n

(* The first value stored allocates [vals] at the pool's size. *)
let[@inline] store_value t n v =
  if Array.length t.vals = 0 then
    t.vals <- Array.make (Array.length t.times) dummy;
  Array.unsafe_set t.vals n v

let add_staged t v =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  store_value t (insert_staged t seq) v

let[@inline] add t ~time value =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Calendar_queue.add: time must be finite and non-negative";
  Float.Array.unsafe_set t.staging 0 time;
  add_staged t (Obj.repr value)

let alloc_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* No [seq < next_seq] guard: a seq may come from another queue's
   counter, so this queue's own counter need never have reached it. *)
let add_with_seq t ~time ~seq value =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg
      "Calendar_queue.add_with_seq: time must be finite and non-negative";
  if seq < 0 then invalid_arg "Calendar_queue.add_with_seq: negative seq";
  Float.Array.unsafe_set t.staging 0 time;
  store_value t (insert_staged t seq) (Obj.repr value)

let[@inline] add_key t ~time ~key =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Calendar_queue.add_key: time must be finite and non-negative";
  if key < 0 then invalid_arg "Calendar_queue.add_key: negative key";
  Float.Array.unsafe_set t.staging 0 time;
  ignore (insert_staged t key)

(* Nothing inside its own window for a whole year: direct search over
   the bucket heads (each head is its bucket's minimum).  Rare — only
   sparse horizons reach it.  Compares by node index so only int refs
   are live (no boxed float accumulator). *)
let direct_search t =
  let nb = t.mask + 1 in
  let best_b = ref (-1) in
  let best_n = ref (-1) in
  for b = 0 to nb - 1 do
    let h = Array.unsafe_get t.buckets b in
    if
      h >= 0
      && (!best_n < 0
         || Array.unsafe_get t.times h < Array.unsafe_get t.times !best_n
         || (Array.unsafe_get t.times h = Array.unsafe_get t.times !best_n
             && Array.unsafe_get t.keys h < Array.unsafe_get t.keys !best_n))
    then begin
      best_b := b;
      best_n := h
    end
  done;
  t.cur <- bucket_number t (Array.unsafe_get t.times !best_n);
  !best_b

(* Find the node to dequeue: the bucket (relative index) holding the
   earliest event, positioning [t.cur] on its year.  Assumes size > 0.
   A while loop over int refs, not a local recursive function — a [let
   rec] closure here would be allocated on every [min_time]/[take]. *)
let search_min_bucket t =
  let nb = t.mask + 1 in
  let c = ref t.cur in
  let k = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !k < nb do
    let b = !c land t.mask in
    let h = Array.unsafe_get t.buckets b in
    (* The window check divides exactly like [bucket_number] does —
       mixing a multiplication here would disagree with placement at
       bucket boundaries (different rounding) and skip the true minimum
       in favor of a later year's event. *)
    if h >= 0 && Array.unsafe_get t.times h /. t.width < float_of_int (!c + 1)
    then begin
      t.cur <- !c;
      found := b
    end
    else begin
      incr c;
      incr k
    end
  done;
  if !found >= 0 then !found else direct_search t

let[@inline] find_min_bucket t =
  if t.found >= 0 then t.found
  else begin
    let b = search_min_bucket t in
    t.found <- b;
    b
  end

(* The one remove path: unlink bucket [b]'s head and return its node.
   The node's fields stay readable until the next insert reuses it. *)
let remove_head t b =
  t.found <- -1;
  let n = Array.unsafe_get t.buckets b in
  Array.unsafe_set t.buckets b (Array.unsafe_get t.nexts n);
  Array.unsafe_set t.nexts n t.free;
  t.free <- n;
  t.size <- t.size - 1;
  let nb = t.mask + 1 in
  (* Shrink at size < nb/4, not ns-2's nb/2: paired with growth at
     2*nb this leaves an 8x hysteresis band, so a pending-event count
     that breathes with the congestion window (2-4x over an RTT) never
     thrashes the ring through rebuild storms. *)
  if nb > min_buckets && t.size < nb / 4 then resize t (nb / 2);
  n

(* Detach removed node [n]'s value.  A queue without [vals] has only
   ever held keyed entries, so it is a [unit t] and [dummy] is [()]. *)
let[@inline] value_of t n =
  if Array.length t.vals = 0 then Obj.obj dummy
  else begin
    let v = Array.unsafe_get t.vals n in
    Array.unsafe_set t.vals n dummy;
    Obj.obj v
  end

(* Pops must come in (time, key) order.  Keys are seq-major — a plain
   seq, or a seq packed above a small index — so at equal times this is
   the FIFO check. *)
let audit_pop t n =
  let time = Array.unsafe_get t.times n and key = Array.unsafe_get t.keys n in
  if time < t.last_pop_time || (time = t.last_pop_time && key < t.last_pop_key)
  then
    Audit.fail
      "Calendar_queue.take: popped (t=%.17g, key=%d) after (t=%.17g, \
       key=%d) — FIFO order at equal timestamps broken"
      time key t.last_pop_time t.last_pop_key;
  t.last_pop_time <- time;
  t.last_pop_key <- key

let take t =
  if t.size = 0 then invalid_arg "Calendar_queue.take: empty queue";
  let b = find_min_bucket t in
  if Audit.invariants_on () then audit_pop t (Array.unsafe_get t.buckets b);
  value_of t (remove_head t b)

let take_key t =
  if t.size = 0 then invalid_arg "Calendar_queue.take_key: empty queue";
  let b = find_min_bucket t in
  if Audit.invariants_on () then audit_pop t (Array.unsafe_get t.buckets b);
  Array.unsafe_get t.keys (remove_head t b)

(* Earliest time; NaN if empty — callers check [is_empty] first.  Marked
   [@inline] so the float result stays unboxed in the drain loop. *)
let[@inline] min_time t =
  if t.size = 0 then Float.nan
  else begin
    let b = find_min_bucket t in
    Array.unsafe_get t.times (Array.unsafe_get t.buckets b)
  end

let peek_time t = if t.size = 0 then None else Some (min_time t)

let min_key t =
  if t.size = 0 then invalid_arg "Calendar_queue.min_key: empty queue"
  else begin
    let b = find_min_bucket t in
    Array.unsafe_get t.keys (Array.unsafe_get t.buckets b)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let b = find_min_bucket t in
    let time = Array.unsafe_get t.times (Array.unsafe_get t.buckets b) in
    Some (time, value_of t (remove_head t b))
  end

(* Drop every entry for which [keep ~key ~time] is false, in one O(size)
   rebuild.  Survivors keep their (time, key) order; the minimum can
   only move later, which lazy service entries already tolerate.  Does
   not reset the Audit pop watermark — sweeps remove only entries that
   would have popped as no-ops.  Only for a [unit t], so no value needs
   releasing. *)
let filter t ~keep =
  t.found <- -1;
  let live = Array.make t.size 0. in
  let nodes = Array.make t.size 0 in
  let kept = ref 0 in
  Array.iter
    (fun head ->
      let n = ref head in
      while !n >= 0 do
        let nx = Array.unsafe_get t.nexts !n in
        let time = Array.unsafe_get t.times !n in
        if keep ~key:(Array.unsafe_get t.keys !n) ~time then begin
          live.(!kept) <- time;
          nodes.(!kept) <- !n;
          incr kept
        end
        else begin
          Array.unsafe_set t.nexts !n t.free;
          t.free <- !n
        end;
        n := nx
      done)
    t.buckets;
  t.size <- !kept;
  (* Re-bucket the survivors with a width fitted to what remains, sized
     by the same 2x growth threshold [add] uses. *)
  let nb = ref initial_buckets in
  while t.size > 2 * !nb do
    nb := 2 * !nb
  done;
  let live = Array.sub live 0 !kept in
  t.width <- estimate_width t live;
  t.buckets <- Array.make !nb (-1);
  t.mask <- !nb - 1;
  Array.sort Float.compare live;
  t.cur <- (if t.size = 0 then 0 else bucket_number t live.(0));
  for j = 0 to !kept - 1 do
    insert_node t nodes.(j)
  done

let clear t =
  Array.fill t.vals 0 (Array.length t.vals) dummy;
  let cap = Array.length t.nexts in
  for i = 0 to cap - 2 do
    t.nexts.(i) <- i + 1
  done;
  if cap > 0 then t.nexts.(cap - 1) <- -1;
  t.free <- (if cap > 0 then 0 else -1);
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  t.size <- 0;
  t.cur <- 0;
  t.found <- -1;
  t.last_pop_time <- Float.neg_infinity;
  t.last_pop_key <- -1

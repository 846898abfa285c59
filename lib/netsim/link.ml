(* The packet hot path used to allocate two closures per packet per hop
   (one serialization-done event, one delivery event).  Both are now
   preallocated once per link: [tx_done] reads the packet being
   serialized from [tx_pkt] (the link serializes one packet at a time, so
   a single slot suffices), and [deliver_front] pops a FIFO ring of
   packets in propagation (the delay is constant per link, so deliveries
   complete in the order they start — a ring is exact, not approximate).
   Steady-state forwarding allocates nothing. *)

type t = {
  sim : Engine.Sim.t;
  bandwidth : float;
  delay : float;
  queue : Queue_intf.t;
  mutable busy : bool;
  mutable deliver : Packet.t -> unit;
  mutable arrivals : int;
  mutable drops : int;
  mutable departures : int;
  mutable delivered : int;  (* handed to the far-end receiver *)
  mutable bytes_out : int;
  mutable drop_hooks : (Packet.t -> unit) list;
  (* Per-packet queueing delay (enqueue -> tx-start), observed via a side
     ring of enqueue timestamps.  Valid because every discipline here is
     strictly FIFO and drops happen only at enqueue: the k-th timestamp
     pushed always belongs to the k-th packet dequeued.  Empty hook list
     means zero cost and no behavior change on the hot path. *)
  mutable qdelay_hooks : (Packet.t -> float -> unit) list;
  mutable enq_times : float array;
  mutable enq_head : int;
  mutable enq_len : int;
  mutable qd_skip : int; (* pkts already queued when the first hook landed *)
  (* hot-path event reuse *)
  mutable tx_pkt : Packet.t;  (* the packet currently serializing *)
  mutable tx_done : unit -> unit;
  mutable deliver_front : unit -> unit;
  (* ring of packets in propagation, FIFO *)
  mutable flight : Packet.t array;
  mutable flight_head : int;
  mutable flight_len : int;
}

(* Run hooks without the per-call closure a [List.iter (fun h -> h pkt)]
   would allocate. *)
let rec run_hooks hooks pkt =
  match hooks with
  | [] -> ()
  | h :: rest ->
    h pkt;
    run_hooks rest pkt

let rec run_qdelay_hooks hooks pkt delay =
  match hooks with
  | [] -> ()
  | h :: rest ->
    h pkt delay;
    run_qdelay_hooks rest pkt delay

let qd_push t time =
  let cap = Array.length t.enq_times in
  if t.enq_len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let a = Array.make ncap 0. in
    for i = 0 to t.enq_len - 1 do
      a.(i) <- t.enq_times.((t.enq_head + i) land (cap - 1))
    done;
    t.enq_times <- a;
    t.enq_head <- 0
  end;
  let mask = Array.length t.enq_times - 1 in
  t.enq_times.((t.enq_head + t.enq_len) land mask) <- time;
  t.enq_len <- t.enq_len + 1

let qd_pop t =
  let mask = Array.length t.enq_times - 1 in
  let v = t.enq_times.(t.enq_head) in
  t.enq_head <- (t.enq_head + 1) land mask;
  t.enq_len <- t.enq_len - 1;
  v

let flight_push t pkt =
  let cap = Array.length t.flight in
  if t.flight_len = cap then begin
    let ncap = cap * 2 in
    let a = Array.make ncap Packet.dummy in
    for i = 0 to t.flight_len - 1 do
      a.(i) <- t.flight.((t.flight_head + i) land (cap - 1))
    done;
    t.flight <- a;
    t.flight_head <- 0
  end;
  let mask = Array.length t.flight - 1 in
  t.flight.((t.flight_head + t.flight_len) land mask) <- pkt;
  t.flight_len <- t.flight_len + 1

let flight_pop t =
  let mask = Array.length t.flight - 1 in
  let pkt = t.flight.(t.flight_head) in
  t.flight.(t.flight_head) <- Packet.dummy;
  t.flight_head <- (t.flight_head + 1) land mask;
  t.flight_len <- t.flight_len - 1;
  pkt

let tx_time t ~bytes = float_of_int (bytes * 8) /. t.bandwidth

(* Conservation checkpoint, run after every [send] and [tx_done] under
   [Audit.invariants_on].  Every packet offered to the link must be
   accounted for exactly once: dropped at the queue, departed onto the
   wire, still queued, or the one currently serializing; and every
   departed packet is either delivered or in propagation.  Pure reads —
   cannot perturb the simulation. *)
let check_conservation t =
  let queued = t.queue.Queue_intf.pkts () in
  let qbytes = t.queue.Queue_intf.bytes () in
  if queued < 0 || qbytes < 0 then
    Engine.Audit.fail
      "Link(%s): negative queue occupancy — %d pkts, %d bytes"
      t.queue.Queue_intf.name queued qbytes;
  let serializing = if t.busy then 1 else 0 in
  let accounted = t.drops + t.departures + queued + serializing in
  if t.arrivals <> accounted then
    Engine.Audit.fail
      "Link(%s): packet conservation violated — arrivals=%d but drops=%d + \
       departures=%d + queued=%d + serializing=%d = %d"
      t.queue.Queue_intf.name t.arrivals t.drops t.departures queued
      serializing accounted;
  if t.departures - t.delivered <> t.flight_len then
    Engine.Audit.fail
      "Link(%s): flight accounting violated — departures=%d, delivered=%d, \
       but %d in propagation"
      t.queue.Queue_intf.name t.departures t.delivered t.flight_len

let transmit_next t =
  match t.queue.Queue_intf.dequeue () with
  | None -> t.busy <- false
  | Some pkt ->
    if t.qdelay_hooks != [] then begin
      if t.qd_skip > 0 then t.qd_skip <- t.qd_skip - 1
      else if t.enq_len > 0 then
        run_qdelay_hooks t.qdelay_hooks pkt
          (Engine.Sim.now t.sim -. qd_pop t)
    end;
    t.busy <- true;
    t.tx_pkt <- pkt;
    Engine.Sim.after t.sim (tx_time t ~bytes:pkt.Packet.size) t.tx_done

let make ~sim ~bandwidth ~delay ~queue =
  if bandwidth <= 0. then invalid_arg "Link.make: bandwidth must be positive";
  if delay < 0. then invalid_arg "Link.make: negative delay";
  let t =
    {
      sim;
      bandwidth;
      delay;
      queue;
      busy = false;
      deliver = (fun _ -> ());
      arrivals = 0;
      drops = 0;
      departures = 0;
      delivered = 0;
      bytes_out = 0;
      drop_hooks = [];
      qdelay_hooks = [];
      enq_times = [||];
      enq_head = 0;
      enq_len = 0;
      qd_skip = 0;
      tx_pkt = Packet.dummy;
      tx_done = ignore;
      deliver_front = ignore;
      flight = Array.make 16 Packet.dummy;
      flight_head = 0;
      flight_len = 0;
    }
  in
  t.deliver_front <-
    (fun () ->
      let pkt = flight_pop t in
      if Engine.Audit.invariants_on () && pkt == Packet.dummy then
        Engine.Audit.fail
          "Link(%s): delivery popped the dummy packet (flight-ring \
           corruption)"
          t.queue.Queue_intf.name;
      t.delivered <- t.delivered + 1;
      t.deliver pkt);
  t.tx_done <-
    (fun () ->
      let pkt = t.tx_pkt in
      t.tx_pkt <- Packet.dummy;
      t.departures <- t.departures + 1;
      t.bytes_out <- t.bytes_out + pkt.Packet.size;
      (* Delivery is scheduled before the next serialization starts, so
         if [delay] happens to equal a tx time the delivery event keeps
         its historical FIFO priority at the tie. *)
      if t.delay > 0. then begin
        flight_push t pkt;
        Engine.Sim.after t.sim t.delay t.deliver_front
      end
      else begin
        t.delivered <- t.delivered + 1;
        t.deliver pkt
      end;
      transmit_next t;
      if Engine.Audit.invariants_on () then check_conservation t);
  t

let connect t deliver = t.deliver <- deliver
let queue t = t.queue

let send t pkt =
  t.arrivals <- t.arrivals + 1;
  (match t.queue.Queue_intf.enqueue pkt with
  | Queue_intf.Dropped ->
    t.drops <- t.drops + 1;
    run_hooks t.drop_hooks pkt
  | Queue_intf.Enqueued | Queue_intf.Marked ->
    if t.qdelay_hooks != [] then qd_push t (Engine.Sim.now t.sim);
    if not t.busy then transmit_next t);
  if Engine.Audit.invariants_on () then check_conservation t

let arrivals t = t.arrivals
let drops t = t.drops
let departures t = t.departures
let delivered t = t.delivered
let in_flight t = t.flight_len
let busy t = t.busy
let bytes_out t = float_of_int t.bytes_out

(* Fraction of the link's capacity used over [elapsed] wall-sim seconds. *)
let utilization t ~elapsed =
  if elapsed <= 0. then 0.
  else float_of_int t.bytes_out *. 8. /. (t.bandwidth *. elapsed)

(* Own counters plus the queue discipline's, for the observability layer.
   Queue counters are prefixed with the discipline name. *)
let counters t =
  [
    ("arrivals", t.arrivals);
    ("drops", t.drops);
    ("departures", t.departures);
    ("delivered", t.delivered);
    ("bytes_out", t.bytes_out);
  ]
  @ List.map
      (fun (k, v) -> (t.queue.Queue_intf.name ^ "." ^ k, v))
      (t.queue.Queue_intf.counters ())

let on_drop t hook = t.drop_hooks <- hook :: t.drop_hooks

let on_queue_delay t hook =
  if t.qdelay_hooks = [] then
    (* Packets already sitting in the queue were enqueued before we
       started timestamping; skip exactly that many dequeues so the ring
       stays aligned with the FIFO order. *)
    t.qd_skip <- t.queue.Queue_intf.pkts ();
  t.qdelay_hooks <- hook :: t.qdelay_hooks

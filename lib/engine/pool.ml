type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  pending : (unit -> unit) Queue.t;
  mutable closing : bool;
  mutable spawned : int;
  mutable workers : unit Domain.t list;
}

(* Set in every worker domain so that nested batch submissions (a job that
   itself calls [map_list]) run inline instead of deadlocking the pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_jobs () = max 1 (Domain.recommended_domain_count ())
let clamp_jobs jobs = min 128 (max 1 jobs)

(* GC policy for simulation domains.  The engine hot path allocates little
   but steadily; a larger minor heap cuts minor-collection frequency (and
   with it promotion of short-lived event closures). *)
let tune_gc () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1_048_576; space_overhead = 120 }

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.pending && not t.closing do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.pending then Mutex.unlock t.mutex
  else begin
    let job = Queue.pop t.pending in
    Mutex.unlock t.mutex;
    job ();
    worker_loop t
  end

let create ~jobs =
  let jobs = clamp_jobs jobs in
  tune_gc ();
  {
    jobs;
    mutex = Mutex.create ();
    has_work = Condition.create ();
    pending = Queue.create ();
    closing = false;
    spawned = 0;
    workers = [];
  }

let jobs t = t.jobs

(* Spawn workers on demand, never more than the batch at hand can keep
   busy: a pool created with [jobs = 8] that only ever sees 2-job batches
   runs 2 domains.  Called with [t.mutex] held. *)
let ensure_workers t batch_size =
  let wanted = min t.jobs batch_size in
  while t.spawned < wanted do
    t.spawned <- t.spawned + 1;
    t.workers <-
      Domain.spawn (fun () ->
          Domain.DLS.set in_worker true;
          tune_gc ();
          worker_loop t)
      :: t.workers
  done

type 'r cell = Pending | Done of 'r | Failed of exn * Printexc.raw_backtrace

(* Apply [f] to every element on the pool, returning results in index
   order.  Results land in distinct array slots; the batch mutex both
   counts completions and publishes the slot writes to the waiting
   submitter. *)
let map_array t f xs =
  let n = Array.length xs in
  if t.jobs <= 1 || n <= 1 || Domain.DLS.get in_worker then
    (* Degenerate/inline path. *)
    Array.map f xs
  else begin
    let results = Array.make n Pending in
    let remaining = ref n in
    let batch_mutex = Mutex.create () in
    let batch_done = Condition.create () in
    Mutex.lock t.mutex;
    if t.closing then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool: submission after shutdown"
    end;
    ensure_workers t n;
    Array.iteri
      (fun i x ->
        Queue.add
          (fun () ->
            let r =
              try Done (f x)
              with e -> Failed (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- r;
            Mutex.lock batch_mutex;
            decr remaining;
            if !remaining = 0 then Condition.signal batch_done;
            Mutex.unlock batch_mutex)
          t.pending)
      xs;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    Mutex.lock batch_mutex;
    while !remaining > 0 do
      Condition.wait batch_done batch_mutex
    done;
    Mutex.unlock batch_mutex;
    Array.map
      (function
        | Done v -> v
        | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      results
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- [];
  t.spawned <- 0

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Simulated units of the paper-dynamics, zoo-paced and manyflow-1e5
   workloads: inputs drawn from the seed, build, run, count vector and
   correctness checks.

   Units are built through public library functions only.  The traced
   variant adds instrumentation from outside the library: a
   [Dumbbell.Custom] wrapper around the same queue constructor the
   dumbbell would use (counting and timing bottleneck enqueue/dequeue), a
   [Link.on_queue_delay] hook, and [Gc.compact] live-word deltas around
   the many-flow build.  None of it changes what is simulated, which the
   count vectors check on every traced run. *)

open Slowcc
module Db = Netsim.Dumbbell
module Q = Netsim.Queue_intf
module Rng = Engine.Rng

type family =
  | Restart  (** CBR at half the bottleneck: on, off, back on *)
  | Wave of float  (** square-wave CBR at 2/3 of the bottleneck, this period *)
  | Crowd  (** flash crowd of 10-packet TCP transfers *)
  | Pattern of Scenarios.pattern  (** designed loss pattern at the bottleneck *)

type spec = {
  family : family;
  proto : Protocol.t;
  bw : float;  (** bottleneck bits/s *)
  red : bool;  (** RED, else droptail; [Pattern] has its own queue *)
  flows : int;  (** forward flows; one reverse TCP flow rides along *)
  useed : int;
  horizon : float;  (** sim-seconds *)
}

(* One unit as the pass loop sees it.  [run] returns host seconds spent
   building and running, the count-vector digest and failed checks;
   [build_only] builds without running and returns host seconds. *)
type sim_unit = {
  label : string;
  run :
    traced:bool ->
    qdelay:float Engine.Reservoir.t option ->
    Tally.sums ->
    float * string * string list;
  build_only : unit -> float;
}

(* ------------------------------------------------------------------ *)
(* Inputs from the seed                                                *)
(* ------------------------------------------------------------------ *)

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let paper_protocols =
  Protocol.
    [
      tcp ~gamma:2.; tcp ~gamma:8.; tcp ~gamma:64.; tcp ~gamma:256.;
      tcp_sack ~gamma:2.; sqrt_ ~gamma:2.; iiad ~gamma:2.; rap ~gamma:2.;
      tfrc ~k:6 (); tfrc ~k:64 (); tfrc ~k:256 ();
      tfrc ~conservative:true ~k:6 (); tfrc ~conservative:true ~k:64 ();
      tfrc ~conservative:true ~k:256 (); tear ~rounds:8;
    ]

let zoo_protocols =
  Protocol.
    [
      bbr; vegas ~alpha:1. ~beta:3. (); vegas (); vegas ~alpha:4. ~beta:6. ();
      tcp ~gamma:2.;
    ]

let bandwidths = [ 1.5e6; 5e6; 15e6 ]

(* The loss patterns of Figures 17 and 18. *)
let patterns =
  Scenarios.[ Counts [ 50; 50; 50; 400; 400; 400 ]; Phases [ (6.0, 200); (1.0, 4) ] ]

let family_name = function
  | Restart -> "restart"
  | Wave p -> Printf.sprintf "wave%g" p
  | Crowd -> "crowd"
  | Pattern (Scenarios.Counts _) -> "pattern-counts"
  | Pattern (Scenarios.Phases _) -> "pattern-phases"

(* A pass is a fixed list of cells (family, protocol, bandwidth), and
   every scenario knob is a fixed function of the cell's position: queue
   kind, flow count, wave period, loss pattern.  The seed draws each
   unit's random streams (start jitter, RED drops, crowd arrivals) and
   the order the units run in.  Passes on different seeds therefore
   simulate different traffic but about the same amount of it, so a
   seed changes what is measured without changing how much. *)
let specs rng ~horizon cells =
  shuffle rng
    (List.mapi
       (fun i (fam, proto, bw) ->
         let family =
           match fam with
           | 0 -> Restart
           | 1 -> Wave (List.nth [ 0.2; 1.; 4.; 16. ] (i mod 4))
           | 2 -> Crowd
           | _ -> Pattern (List.nth patterns (i mod 2))
         in
         {
           family;
           proto;
           bw;
           red = i mod 2 = 0;
           flows = 2 + (i mod 9);
           useed = Rng.int rng 1_000_000_000;
           horizon;
         })
       cells)

let families = [ 0; 1; 2; 3 ]

(* paper-dynamics: each protocol once per family, the bandwidths rotating
   so that each family gets each bandwidth in equal shares. *)
let paper_cells ~protocols ~bandwidths =
  List.concat_map
    (fun fam ->
      List.mapi
        (fun i proto ->
          (fam, proto, List.nth bandwidths ((i + fam) mod List.length bandwidths)))
        protocols)
    families

(* zoo-paced: every (family, protocol, bandwidth). *)
let zoo_cells ~protocols ~bandwidths =
  List.concat_map
    (fun fam ->
      List.concat_map
        (fun proto -> List.map (fun bw -> (fam, proto, bw)) bandwidths)
        protocols)
    families

(* ------------------------------------------------------------------ *)
(* Queues                                                              *)
(* ------------------------------------------------------------------ *)

(* Bottleneck enqueue/dequeue calls and host ns inside them. *)
type probe = { mutable ops : int; mutable ns : int }

let wrap probe (q : Q.t) =
  {
    q with
    Q.enqueue =
      (fun pkt ->
        let t0 = Spans.now_ns () in
        let r = q.Q.enqueue pkt in
        probe.ns <- probe.ns + (Spans.now_ns () - t0);
        probe.ops <- probe.ops + 1;
        r);
    dequeue =
      (fun () ->
        let t0 = Spans.now_ns () in
        let r = q.Q.dequeue () in
        probe.ns <- probe.ns + (Spans.now_ns () - t0);
        probe.ops <- probe.ops + 1;
        r);
  }

(* The dumbbell's own RED and droptail dimensioning, so a traced build can
   construct the very queue [Dumbbell.create] would. *)
let red_params (c : Db.config) =
  let bdp = Float.max 4. (Db.bdp_packets c) in
  let capacity = int_of_float (Float.max 8. (2.5 *. bdp)) in
  ( {
      Netsim.Red.default_params with
      min_th = 0.25 *. bdp;
      max_th = 1.25 *. bdp;
      capacity;
      mean_pkt_tx_time = float_of_int (c.Db.pkt_size * 8) /. c.Db.bandwidth;
    },
    capacity )

let pattern_queue ~sim = function
  | Scenarios.Counts c ->
    Netsim.Loss_pattern.by_count ~pattern:c (Netsim.Droptail.make ~capacity:1000)
  | Scenarios.Phases p ->
    Netsim.Loss_pattern.by_phase ~sim ~phases:p
      (Netsim.Droptail.make ~capacity:1000)

(* [rng] is the generator handed to [Dumbbell.create]: like the
   dumbbell, a traced RED splits it once per direction. *)
let queue_kind ~probe ~sim ~rng s =
  let red_p, capacity = red_params (Db.default_config ~bandwidth:s.bw) in
  let inner () =
    match s.family with
    | Pattern pat -> pattern_queue ~sim pat
    | _ when s.red -> Netsim.Red.make ~sim ~rng:(Rng.split rng) red_p
    | _ -> Netsim.Droptail.make ~capacity
  in
  match (probe, s.family) with
  | Some p, _ -> Db.Custom (fun () -> wrap p (inner ()))
  | None, Pattern _ -> Db.Custom inner
  | None, _ -> if s.red then Db.Red else Db.Droptail

(* ------------------------------------------------------------------ *)
(* Count vectors and checks                                            *)
(* ------------------------------------------------------------------ *)

let link_lines buf links =
  List.iteri
    (fun j l ->
      Printf.bprintf buf "link %d" j;
      List.iter
        (fun (k, v) -> Printf.bprintf buf " %s=%d" k v)
        (Netsim.Link.counters l);
      Buffer.add_char buf '\n')
    links

let check_links fail links =
  List.iter
    (fun l ->
      try Netsim.Link.check_conservation l
      with Engine.Audit.Violation m -> fail ("conservation: " ^ m))
    links

(* Exact traffic counts every simulated unit adds to its pass. *)
let add_traffic sums ~sim ~db =
  let bn = Db.bottleneck db in
  Tally.add sums "engine.events" (float_of_int (Engine.Sim.events_processed sim));
  Tally.add sums "netsim.pkts" (float_of_int (Netsim.Link.departures bn));
  Tally.add sums "netsim.arrivals" (float_of_int (Netsim.Link.arrivals bn));
  Tally.add sums "netsim.drops" (float_of_int (Netsim.Link.drops bn))

let add_sender sums ~sent ~rtx ~timeouts =
  Tally.add sums "cc.sent_pkts" (float_of_int sent);
  Tally.add sums "cc.rtx_pkts" (float_of_int rtx);
  Tally.add sums "cc.timeouts" (float_of_int timeouts)

(* Run [sim] to [until] under a "run" span; host seconds, minor words
   and major collections go to [sums]. *)
let run_sim sums sim ~until =
  let w0 = Gc.minor_words () and gcs0 = (Gc.quick_stat ()).Gc.major_collections in
  let (), run_s =
    Spans.with_span "run" (fun () ->
        Spans.timed (fun () -> Engine.Sim.run ~until sim))
  in
  Tally.add sums "engine.run_s" run_s;
  Tally.add sums "engine.minor_words" (Gc.minor_words () -. w0);
  Tally.add sums "engine.major_gcs"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - gcs0));
  run_s

let add_probe sums = function
  | None -> ()
  | Some p ->
    Tally.add sums "netsim.queue.ops" (float_of_int p.ops);
    Tally.add sums "netsim.queue.s" (float_of_int p.ns *. 1e-9);
    Spans.attr "queue_ops" (float_of_int p.ops);
    Spans.attr "queue_ns" (float_of_int p.ns)

let on_qdelay db = function
  | None -> ()
  | Some r ->
    Netsim.Link.on_queue_delay (Db.bottleneck db) (fun _ d ->
        Engine.Reservoir.offer r d)

(* ------------------------------------------------------------------ *)
(* Per-object units: paper-dynamics and zoo-paced                      *)
(* ------------------------------------------------------------------ *)

type built = {
  sim : Engine.Sim.t;
  db : Db.t;
  flows : Cc.Flow.t list;
  crowd : Cc.Flash_crowd.t option;
}

let build ~probe sums s =
  let sim = Engine.Sim.create () in
  let rng = Rng.create ~seed:s.useed in
  let db_rng = Rng.split rng in
  let config =
    {
      (Db.default_config ~bandwidth:s.bw) with
      Db.queue = queue_kind ~probe ~sim ~rng:db_rng s;
    }
  in
  let db, db_s = Spans.timed (fun () -> Db.create ~sim ~rng:db_rng config) in
  Tally.add sums "netsim.dumbbells" 1.;
  Tally.add sums "netsim.dumbbell_s" db_s;
  let spawn ?reverse proto =
    let f, t = Spans.timed (fun () -> Protocol.spawn ?reverse proto db) in
    Tally.add sums "cc.spawns" 1.;
    Tally.add sums "cc.spawn_s" t;
    f
  in
  let senders =
    List.init s.flows (fun _ -> spawn s.proto)
    @ [ spawn ~reverse:true (Protocol.tcp ~gamma:2.) ]
  in
  List.iter
    (fun (f : Cc.Flow.t) ->
      Engine.Sim.at sim (Rng.uniform rng ~lo:0. ~hi:2.) f.Cc.Flow.start)
    senders;
  let cbr rate =
    let src, dst = Db.add_host_pair db in
    Cc.Cbr.flow
      (Cc.Cbr.create ~sim ~src ~dst ~flow:(Db.fresh_flow db) ~rate
         ~pkt_size:1000)
  in
  let h = s.horizon in
  let extra, crowd =
    match s.family with
    | Restart ->
      let f = cbr (s.bw /. 2.) in
      Engine.Sim.at sim 0. f.Cc.Flow.start;
      Engine.Sim.at sim (0.625 *. h) f.Cc.Flow.stop;
      Engine.Sim.at sim (0.75 *. h) f.Cc.Flow.start;
      ([ f ], None)
    | Wave period ->
      let f = cbr (2. /. 3. *. s.bw) in
      let rec edges t =
        if t < h then begin
          Engine.Sim.at sim t f.Cc.Flow.start;
          Engine.Sim.at sim (t +. (period /. 2.)) f.Cc.Flow.stop;
          edges (t +. period)
        end
      in
      edges (h /. 8.);
      ([ f ], None)
    | Crowd ->
      ( [],
        Some
          (Cc.Flash_crowd.create ~sim ~rng:(Rng.split rng) ~dumbbell:db
             ~start:(0.375 *. h) Cc.Flash_crowd.default_config) )
    | Pattern _ -> ([], None)
  in
  { sim; db; flows = senders @ extra; crowd }

let run_object label s ~traced ~qdelay sums =
  let probe = if traced then Some { ops = 0; ns = 0 } else None in
  let b, build_s =
    Spans.with_span "build" (fun () ->
        Spans.timed (fun () -> build ~probe sums s))
  in
  Tally.add sums "setup.build_s" build_s;
  on_qdelay b.db qdelay;
  let run_s = run_sim sums b.sim ~until:s.horizon in
  Tally.add_live sums;
  add_probe sums probe;
  let problems = ref [] in
  let fail m = problems := (label ^ ": " ^ m) :: !problems in
  let links = Db.links b.db in
  check_links fail links;
  let buf = Buffer.create 2048 in
  let sent = ref 0 and rtx = ref 0 and timeouts = ref 0 in
  List.iteri
    (fun i (f : Cc.Flow.t) ->
      let st = f.Cc.Flow.stats () in
      sent := !sent + st.Cc.Flow.sent_pkts;
      rtx := !rtx + st.Cc.Flow.rtx_pkts;
      timeouts := !timeouts + st.Cc.Flow.timeouts;
      if st.Cc.Flow.sent_bytes < st.Cc.Flow.delivered_bytes then
        fail
          (Printf.sprintf "flow %d delivered %.0f bytes of %.0f sent" i
             st.Cc.Flow.delivered_bytes st.Cc.Flow.sent_bytes);
      Printf.bprintf buf
        "flow %d %s sent=%d sbytes=%.17g dbytes=%.17g rtx=%d to=%d frtx=%d \
         srtt=%.17g\n"
        i f.Cc.Flow.protocol st.Cc.Flow.sent_pkts st.Cc.Flow.sent_bytes
        st.Cc.Flow.delivered_bytes st.Cc.Flow.rtx_pkts st.Cc.Flow.timeouts
        st.Cc.Flow.fast_rtx st.Cc.Flow.stat_srtt)
    b.flows;
  Option.iter
    (fun c ->
      Printf.bprintf buf "crowd started=%d completed=%d bytes=%.17g\n"
        (Cc.Flash_crowd.flows_started c)
        (Cc.Flash_crowd.flows_completed c)
        (Cc.Flash_crowd.bytes_delivered c))
    b.crowd;
  link_lines buf links;
  Printf.bprintf buf "events=%d now=%.17g\n"
    (Engine.Sim.events_processed b.sim)
    (Engine.Sim.now b.sim);
  add_traffic sums ~sim:b.sim ~db:b.db;
  add_sender sums ~sent:!sent ~rtx:!rtx ~timeouts:!timeouts;
  (build_s +. run_s, Digest.to_hex (Digest.string (Buffer.contents buf)), !problems)

let object_unit i s =
  let label =
    Printf.sprintf "%02d-%s-%s" i (family_name s.family) (Protocol.name s.proto)
  in
  {
    label;
    run = run_object label s;
    build_only =
      (fun () -> snd (Spans.timed (fun () -> build ~probe:None (Tally.sums ()) s)));
  }

(* ------------------------------------------------------------------ *)
(* Many-flow units: manyflow-1e5                                       *)
(* ------------------------------------------------------------------ *)

(* A queue whose construction waits for its first use.  [Manyflow.build_soa]
   creates the simulator itself, and RED needs that simulator's clock;
   RED reads it only once packets flow, after the build has returned. *)
let deferred name (q : Q.t Lazy.t) =
  {
    Q.name;
    enqueue = (fun p -> (Lazy.force q).Q.enqueue p);
    dequeue = (fun () -> (Lazy.force q).Q.dequeue ());
    pkts = (fun () -> (Lazy.force q).Q.pkts ());
    bytes = (fun () -> (Lazy.force q).Q.bytes ());
    counters = (fun () -> (Lazy.force q).Q.counters ());
  }

(* The traced bottleneck of a many-flow unit.  [Manyflow] hands its
   dumbbell [Rng.split (Rng.create ~seed)]; an identical stream here gives
   the wrapped RED the same random drops. *)
let manyflow_queue probe ~sim_cell (p : Manyflow.params) =
  let red_p, capacity =
    red_params { (Db.default_config ~bandwidth:p.Manyflow.bandwidth) with Db.rtt = p.Manyflow.rtt }
  in
  let db_rng = Rng.split (Rng.create ~seed:p.Manyflow.seed) in
  let red = match p.Manyflow.queue with Db.Red -> true | _ -> false in
  let red_name =
    (Netsim.Red.make ~sim:(Engine.Sim.create ()) ~rng:(Rng.create ~seed:0) red_p).Q.name
  in
  Db.Custom
    (fun () ->
      let rng = Rng.split db_rng in
      if red then
        wrap probe
          (deferred red_name
             (lazy (Netsim.Red.make ~sim:(Option.get !sim_cell) ~rng red_p)))
      else wrap probe (Netsim.Droptail.make ~capacity))

let run_manyflow label (p : Manyflow.params) ~traced ~qdelay sums =
  let probe = if traced then Some { ops = 0; ns = 0 } else None in
  let sim_cell = ref None in
  let p =
    match probe with
    | Some pr -> { p with Manyflow.queue = manyflow_queue pr ~sim_cell p }
    | None -> p
  in
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = if traced then live () else 0 in
  let b, build_s =
    Spans.with_span "build" (fun () ->
        Spans.timed (fun () -> Manyflow.build_soa p))
  in
  sim_cell := Some b.Manyflow.sim;
  let n = p.Manyflow.n in
  if traced then begin
    let bytes = float_of_int ((live () - live0) * (Sys.word_size / 8)) in
    Tally.add sums "cc.soa.state_bytes" bytes;
    Tally.add sums "cc.soa.traced_flows" (float_of_int n)
  end;
  Tally.add sums "setup.build_s" build_s;
  Tally.add sums "cc.soa.flows" (float_of_int n);
  Tally.add sums "cc.soa.build_s" build_s;
  on_qdelay b.Manyflow.db qdelay;
  let run_s = run_sim sums b.Manyflow.sim ~until:p.Manyflow.duration in
  Tally.add_live sums;
  add_probe sums probe;
  let problems = ref [] in
  let fail m = problems := (label ^ ": " ^ m) :: !problems in
  let links = Db.links b.Manyflow.db in
  check_links fail links;
  let eng = b.Manyflow.eng in
  let buf = Buffer.create (n * 32) in
  let sent = ref 0 and rtx = ref 0 and timeouts = ref 0 in
  for i = 0 to n - 1 do
    let s = Cc.Flow_soa.pkts_sent eng i
    and r = Cc.Flow_soa.retransmitted_pkts eng i
    and t = Cc.Flow_soa.timeouts eng i in
    sent := !sent + s;
    rtx := !rtx + r;
    timeouts := !timeouts + t;
    if Cc.Flow_soa.bytes_sent eng i < Cc.Flow_soa.bytes_delivered eng i then
      fail (Printf.sprintf "flow %d delivered more than it sent" i);
    Printf.bprintf buf "%d %d %d %d %d %Lx\n" s
      (Cc.Flow_soa.delivered_pkts eng i)
      r t
      (Cc.Flow_soa.fast_retransmits eng i)
      (Int64.bits_of_float (Cc.Flow_soa.srtt eng i))
  done;
  link_lines buf links;
  Printf.bprintf buf "events=%d now=%.17g\n"
    (Engine.Sim.events_processed b.Manyflow.sim)
    (Engine.Sim.now b.Manyflow.sim);
  add_traffic sums ~sim:b.Manyflow.sim ~db:b.Manyflow.db;
  add_sender sums ~sent:!sent ~rtx:!rtx ~timeouts:!timeouts;
  (build_s +. run_s, Digest.to_hex (Digest.string (Buffer.contents buf)), !problems)

(* manyflow-1e5: one unit per (gamma, queue) cell.  The seed draws each
   unit's simulation seed and its start stagger, within 10% of one second
   so that the amount of traffic stays about the same. *)
let manyflow_units rng ~n ~duration ~cells =
  shuffle rng
    (List.mapi
       (fun i (gamma, red) ->
         let stagger = Rng.uniform rng ~lo:0.9 ~hi:1.1 in
         let seed = Rng.int rng 1_000_000_000 in
         let p =
           {
             (Manyflow.default_params ~n) with
             Manyflow.duration;
             warmup = 0.;
             gamma;
             queue = (if red then Db.Red else Db.Droptail);
             stagger;
             seed;
           }
         in
         let label =
           Printf.sprintf "%02d-soa-g%g-%s" i gamma (if red then "red" else "droptail")
         in
         {
           label;
           run = run_manyflow label p;
           build_only =
             (fun () -> snd (Spans.timed (fun () -> Manyflow.build_soa p)));
         })
       cells)

module Json = Engine.Json

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

type flow_spec = { proto : Protocol.t; src_site : int; dst_site : int }

type scenario = {
  seed : int;
  hops : int;
  queue : Netsim.Dumbbell.queue_kind;
  bandwidth : float;
  rtt : float;
  duration : float;
  flows : flow_spec list;
}

let queue_to_string = function
  | Netsim.Dumbbell.Red -> "red"
  | Netsim.Dumbbell.Red_ecn -> "red_ecn"
  | Netsim.Dumbbell.Droptail -> "droptail"
  | Netsim.Dumbbell.Custom _ -> invalid_arg "Fuzz: Custom queue"

let queue_of_string = function
  | "red" -> Some Netsim.Dumbbell.Red
  | "red_ecn" -> Some Netsim.Dumbbell.Red_ecn
  | "droptail" -> Some Netsim.Dumbbell.Droptail
  | _ -> None

let describe sc =
  Printf.sprintf "seed=%d hops=%d queue=%s bw=%g rtt=%g dur=%g flows=[%s]"
    sc.seed sc.hops (queue_to_string sc.queue) sc.bandwidth sc.rtt
    sc.duration
    (String.concat "; "
       (List.map
          (fun fs ->
            Printf.sprintf "%s %d->%d" (Protocol.to_string fs.proto)
              fs.src_site fs.dst_site)
          sc.flows))

(* ------------------------------------------------------------------ *)
(* JSON round trip (replayable reproducers)                            *)
(* ------------------------------------------------------------------ *)

let repro_schema = "slowcc-fuzz-repro/2"

let scenario_to_json sc =
  Json.Obj
    [
      ("schema", Json.String repro_schema);
      ("seed", Json.Int sc.seed);
      ("hops", Json.Int sc.hops);
      ("queue", Json.String (queue_to_string sc.queue));
      ("bandwidth", Json.Float sc.bandwidth);
      ("rtt", Json.Float sc.rtt);
      ("duration", Json.Float sc.duration);
      ( "flows",
        Json.List
          (List.map
             (fun fs ->
               Json.Obj
                 [
                   ("proto", Json.String (Protocol.to_string fs.proto));
                   ("src_site", Json.Int fs.src_site);
                   ("dst_site", Json.Int fs.dst_site);
                 ])
             sc.flows) );
    ]

(* Every value is checked here, so a reproducer that loads also builds:
   [Dumbbell.create] and [add_host] never see an out-of-range number. *)
let scenario_of_json doc =
  let ( let* ) = Result.bind in
  let str k =
    match Json.member k doc with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing or non-string %S" k)
  in
  let positive k =
    match Json.member k doc with
    | Some (Json.Float f) when Float.is_finite f && f > 0. -> Ok f
    | Some (Json.Int i) when i > 0 -> Ok (float_of_int i)
    | _ -> Error (Printf.sprintf "missing or non-positive %S" k)
  in
  let int k obj =
    match Json.member k obj with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "missing or non-int %S" k)
  in
  let* schema = str "schema" in
  let* () =
    if schema = repro_schema then Ok ()
    else Error (Printf.sprintf "unknown schema %S" schema)
  in
  let* seed = int "seed" doc in
  let* hops = int "hops" doc in
  let* () = if hops >= 1 then Ok () else Error "hops must be >= 1" in
  let* queue_s = str "queue" in
  let* queue =
    match queue_of_string queue_s with
    | Some q -> Ok q
    | None -> Error (Printf.sprintf "unknown queue %S" queue_s)
  in
  let* bandwidth = positive "bandwidth" in
  let* rtt = positive "rtt" in
  let* duration = positive "duration" in
  let* flow_docs =
    match Json.member "flows" doc with
    | Some (Json.List l) when l <> [] -> Ok l
    | _ -> Error "missing or empty flows"
  in
  let site k fd =
    let* s = int k fd in
    if s >= 0 && s <= hops then Ok s
    else Error (Printf.sprintf "%s %d outside 0..%d" k s hops)
  in
  let* flows =
    List.fold_left
      (fun acc fd ->
        let* acc = acc in
        let* proto_s =
          match Json.member "proto" fd with
          | Some (Json.String s) -> Ok s
          | _ -> Error "flow without proto"
        in
        let* proto = Protocol.of_string proto_s in
        let* src_site = site "src_site" fd in
        let* dst_site = site "dst_site" fd in
        if src_site = dst_site then
          Error (Printf.sprintf "flow with src_site = dst_site = %d" src_site)
        else Ok ({ proto; src_site; dst_site } :: acc))
      (Ok []) flow_docs
    |> Result.map List.rev
  in
  Ok { seed; hops; queue; bandwidth; rtt; duration; flows }

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let gammas = [| 2.; 4.; 8. |]

let gen_proto rng =
  let gamma () = gammas.(Engine.Rng.int rng (Array.length gammas)) in
  match Engine.Rng.int rng 9 with
  | 0 -> Protocol.tcp ~gamma:(gamma ())
  | 1 -> Protocol.tcp_sack ~gamma:(gamma ())
  | 2 -> Protocol.sqrt_ ~gamma:(gamma ())
  | 3 -> Protocol.iiad ~gamma:(gamma ())
  | 4 -> Protocol.rap ~gamma:(gamma ())
  | 5 -> Protocol.tfrc ~k:(1 + Engine.Rng.int rng 8) ()
  | 6 -> Protocol.tear ~rounds:(1 + Engine.Rng.int rng 8)
  | 7 -> Protocol.bbr
  | _ -> Protocol.vegas ()

let generate ~quick seed =
  (* The generator's stream is distinct from the run-time stream seeded
     by [sc.seed], so scenario shape and in-run randomness (RED) are
     independent. *)
  let rng = Engine.Rng.create ~seed:(seed lxor 0x5eed5eed) in
  let hops =
    if Engine.Rng.bernoulli rng ~p:0.3 then 2 + Engine.Rng.int rng 2 else 1
  in
  let queue =
    match Engine.Rng.int rng 3 with
    | 0 -> Netsim.Dumbbell.Droptail
    | 1 -> Netsim.Dumbbell.Red_ecn
    | _ -> Netsim.Dumbbell.Red
  in
  let bandwidth = float_of_int (1 + Engine.Rng.int rng 4) *. 1e6 in
  let rtt = 0.02 +. (float_of_int (Engine.Rng.int rng 5) *. 0.02) in
  let duration =
    if quick then 2. +. float_of_int (Engine.Rng.int rng 4)
    else 5. +. float_of_int (Engine.Rng.int rng 15)
  in
  let nflows = 1 + Engine.Rng.int rng (if quick then 3 else 5) in
  (* Any two distinct routers of the chain, either way round. *)
  let flows =
    List.init nflows (fun _ ->
        let proto = gen_proto rng in
        let src_site = Engine.Rng.int rng (hops + 1) in
        let dst_site =
          (src_site + 1 + Engine.Rng.int rng hops) mod (hops + 1)
        in
        { proto; src_site; dst_site })
  in
  { seed; hops; queue; bandwidth; rtt; duration; flows }

(* ------------------------------------------------------------------ *)
(* Building and running one leg                                        *)
(* ------------------------------------------------------------------ *)

type built = {
  sim : Engine.Sim.t;
  flows : Cc.Flow.t list;
  links : Netsim.Link.t list;
}

let build sc =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed:sc.seed in
  let config =
    {
      (Netsim.Dumbbell.default_config ~bandwidth:sc.bandwidth) with
      Netsim.Dumbbell.rtt = sc.rtt;
      queue = sc.queue;
      hops = sc.hops;
    }
  in
  let db = Netsim.Dumbbell.create ~sim ~rng:(Engine.Rng.split rng) config in
  let flows =
    List.map
      (fun fs ->
        let src = Netsim.Dumbbell.add_host db ~site:fs.src_site in
        let dst = Netsim.Dumbbell.add_host db ~site:fs.dst_site in
        Protocol.spawn_between fs.proto ~sim ~src ~dst
          ~flow:(Netsim.Dumbbell.fresh_flow db))
      sc.flows
  in
  (* Deterministic staggered starts: no RNG involved, so every leg sees
     the same schedule. *)
  List.iteri
    (fun i (f : Cc.Flow.t) ->
      Engine.Sim.at sim (0.01 +. (0.25 *. float_of_int i)) f.Cc.Flow.start)
    flows;
  { sim; flows; links = Netsim.Dumbbell.links db }

(* The whole observable end state: per-flow transport statistics,
   per-link counters in creation order, and the engine's event count and
   final clock. *)
let trace_of sc b =
  Engine.Sim.run ~until:sc.duration b.sim;
  let buf = Manyflow.end_state_lines ~links:b.links (Array.of_list b.flows) in
  Printf.bprintf buf "events=%d now=%.17g\n"
    (Engine.Sim.events_processed b.sim)
    (Engine.Sim.now b.sim);
  Buffer.contents buf

let digest_of sc = Digest.to_hex (Digest.string (trace_of sc (build sc)))

(* Baseline leg: full auditing, plus end-of-run sweeps — per-link
   conservation and a per-flow data-packet balance (every data packet
   sent is delivered, dropped, or still in the network; a negative
   residue means a packet was double-counted). *)
let pkt_size = 1000.

let audited_digest sc =
  Engine.Audit.with_flags ~invariants:true (fun () ->
      match
        let b = build sc in
        let n = List.length b.flows in
        let drops = Array.make (max 1 n) 0 in
        List.iter
          (fun l ->
            Netsim.Link.on_drop l (fun pkt ->
                let fl = pkt.Netsim.Packet.flow in
                if (not (Netsim.Packet.is_ack pkt)) && fl >= 0 && fl < n then
                  drops.(fl) <- drops.(fl) + 1))
          b.links;
        let trace = trace_of sc b in
        List.iter Netsim.Link.check_conservation b.links;
        List.iteri
          (fun i (f : Cc.Flow.t) ->
            let s = f.Cc.Flow.stats () in
            let received =
              int_of_float ((s.Cc.Flow.delivered_bytes /. pkt_size) +. 0.5)
            in
            let residue = s.Cc.Flow.sent_pkts - received - drops.(i) in
            if residue < 0 then
              Engine.Audit.fail
                "flow %d (%s): data-packet conservation violated — sent=%d \
                 but delivered=%d + dropped=%d"
                i f.Cc.Flow.protocol s.Cc.Flow.sent_pkts received drops.(i))
          b.flows;
        trace
      with
      | trace -> Ok (Digest.to_hex (Digest.string trace))
      | exception Engine.Audit.Violation msg -> Error msg)

(* ------------------------------------------------------------------ *)
(* Differential check                                                  *)
(* ------------------------------------------------------------------ *)

(* [check ?pool sc] returns [None] when every leg agrees and no invariant
   fires, otherwise a description of the first failure.  Legs:
   1. audited baseline (every check on);
   2. the same run with auditing off, so a checkpoint that perturbs the
      run shows as a divergence;
   3. the same run inside a pool worker domain (when [pool] has > 1
      workers) — exercises the worker domains and shared memo caches
      the parallel sweeps rely on. *)
let check ?pool sc =
  match audited_digest sc with
  | Error msg -> Some (Printf.sprintf "invariant violation: %s" msg)
  | Ok base ->
    let differs axis digest =
      if digest <> base then
        Some
          (Printf.sprintf
             "divergence on %s: baseline digest %s, %s digest %s" axis base
             axis digest)
      else None
    in
    let check_unaudited () =
      differs "audit=off"
        (Engine.Audit.with_flags ~invariants:false (fun () -> digest_of sc))
    in
    let check_jobs () =
      match pool with
      | Some pool when Engine.Pool.jobs pool > 1 ->
        let digest =
          match Engine.Pool.map_list pool (fun sc -> digest_of sc) [ sc ] with
          | [ d ] -> d
          | _ -> assert false
        in
        differs "jobs=N" digest
      | _ -> None
    in
    let ( <|> ) a b = match a with Some _ -> a | None -> b () in
    check_unaudited () <|> check_jobs

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Candidate simplifications of a failing scenario, in decreasing order
   of aggressiveness.  Purely structural — the seed is kept, so RED's
   random stream stays comparable across steps. *)
let shrink_candidates (sc : scenario) =
  let drop_flow i = { sc with flows = List.filteri (fun j _ -> j <> i) sc.flows } in
  let nflows = List.length sc.flows in
  List.concat
    [
      (if sc.hops > 1 then
         [
           {
             sc with
             hops = 1;
             flows =
               List.map
                 (fun fs ->
                   if fs.src_site < fs.dst_site then
                     { fs with src_site = 0; dst_site = 1 }
                   else { fs with src_site = 1; dst_site = 0 })
                 sc.flows;
           };
         ]
       else []);
      (if nflows > 1 then List.init nflows drop_flow else []);
      (if sc.duration > 1. then [ { sc with duration = sc.duration /. 2. } ]
       else []);
      (match sc.queue with
      | Netsim.Dumbbell.Droptail -> []
      | _ -> [ { sc with queue = Netsim.Dumbbell.Droptail } ]);
    ]

(* Greedy shrink: repeatedly take the first candidate that still fails
   (any failure counts, not necessarily the original one).  Bounded by
   the structure — every accepted step removes a flow, the extra hops,
   half the duration or the RED machinery — plus a hard iteration cap. *)
let shrink ?pool sc failure =
  let rec go sc failure budget =
    if budget = 0 then (sc, failure)
    else
      let rec first = function
        | [] -> None
        | cand :: rest -> (
          match check ?pool cand with
          | Some f -> Some (cand, f)
          | None -> first rest)
      in
      match first (shrink_candidates sc) with
      | Some (cand, f) -> go cand f (budget - 1)
      | None -> (sc, failure)
  in
  go sc failure 40

(* ------------------------------------------------------------------ *)
(* Reproducer files and replay                                         *)
(* ------------------------------------------------------------------ *)

let save_repro ~dir ~failure sc =
  Table.ensure_dir dir;
  let path = Filename.concat dir (Printf.sprintf "repro-seed%d.json" sc.seed) in
  let doc =
    match scenario_to_json sc with
    | Json.Obj fields -> Json.Obj (fields @ [ ("failure", Json.String failure) ])
    | other -> other
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  path

let load_repro path =
  Result.bind (Json.of_string (Table.read_file path)) scenario_of_json

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type failure = {
  scenario : scenario;  (** as generated *)
  first_failure : string;
  shrunk : scenario;
  shrunk_failure : string;
  repro_path : string option;
}

type report = {
  seeds_run : int;
  failures : failure list;
  soa_failures : (int * string) list;
}

let run_seeds ?pool ?(quick = false) ?out_dir ?(log = fun _ -> ())
    ~seeds () =
  if seeds < 1 then invalid_arg "Fuzz.run_seeds: seeds >= 1";
  let failures = ref [] in
  let soa_failures = ref [] in
  for seed = 0 to seeds - 1 do
    (* SoA leg: one n-slot window engine must end byte-identical to n
       one-slot engines on a randomized instance.
       Fully audited like the baseline leg, so the RTO wheel's pop-order
       check runs on every seed. *)
    (match
       Engine.Audit.with_flags ~invariants:true (fun () ->
           try Manyflow.fuzz_check ~quick seed
           with Engine.Audit.Violation msg ->
             Some ("invariant violation: " ^ msg))
     with
    | None -> ()
    | Some msg ->
      log (Printf.sprintf "seed %d SoA FAILED: %s" seed msg);
      soa_failures := (seed, msg) :: !soa_failures);
    let sc = generate ~quick seed in
    (match check ?pool sc with
    | None -> ()
    | Some first_failure ->
      log
        (Printf.sprintf "seed %d FAILED: %s\n  %s" seed first_failure
           (describe sc));
      let shrunk, shrunk_failure = shrink ?pool sc first_failure in
      let repro_path =
        Option.map
          (fun dir -> save_repro ~dir ~failure:shrunk_failure shrunk)
          out_dir
      in
      (match repro_path with
      | Some p -> log (Printf.sprintf "  reproducer: %s" p)
      | None -> ());
      failures :=
        { scenario = sc; first_failure; shrunk; shrunk_failure; repro_path }
        :: !failures);
    if (seed + 1) mod 25 = 0 then
      log
        (Printf.sprintf "%d/%d seeds, %d failure(s), %d SoA failure(s)"
           (seed + 1) seeds
           (List.length !failures)
           (List.length !soa_failures))
  done;
  {
    seeds_run = seeds;
    failures = List.rev !failures;
    soa_failures = List.rev !soa_failures;
  }

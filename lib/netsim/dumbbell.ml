type queue_kind =
  | Red
  | Red_ecn
  | Droptail
  | Custom of (unit -> Queue_intf.t)

type config = {
  bandwidth : float;
  rtt : float;
  pkt_size : int;
  queue : queue_kind;
  hops : int;
}

let default_config ~bandwidth =
  { bandwidth; rtt = 0.05; pkt_size = 1000; queue = Red; hops = 1 }

let bdp_packets c = c.bandwidth *. c.rtt /. (8. *. float_of_int c.pkt_size)

type t = {
  sim : Engine.Sim.t;
  config : config;
  routers : Node.t array;  (* hops + 1 routers; router i is node i *)
  forward : Link.t array;  (* forward.(i): router i -> router i+1 *)
  backward : Link.t array;  (* backward.(i): router i+1 -> router i *)
  mutable next_node_id : int;
  mutable next_flow_id : int;
  mutable all_links : Link.t list;  (* every link, newest first *)
}

let make_queue ~sim ~rng c =
  let bdp = Float.max 4. (bdp_packets c) in
  let capacity = int_of_float (Float.max 8. (2.5 *. bdp)) in
  match c.queue with
  | Droptail -> Droptail.make ~capacity
  | Custom f -> f ()
  | Red | Red_ecn ->
    let params =
      {
        Red.default_params with
        min_th = 0.25 *. bdp;
        max_th = 1.25 *. bdp;
        capacity;
        ecn = (c.queue = Red_ecn);
        mean_pkt_tx_time = float_of_int (c.pkt_size * 8) /. c.bandwidth;
      }
    in
    Red.make ~sim ~rng:(Engine.Rng.split rng) params

(* RTT budget: 2 x (hops x hop_prop + 2 x edge_prop) = rtt, with edge_prop
   set to rtt/20 so the bottleneck hops carry most of the delay. *)
let edge_prop c = c.rtt /. 20.
let hop_prop c =
  ((c.rtt /. 2.) -. (2. *. edge_prop c)) /. float_of_int c.hops

let edge_bandwidth c = Float.max 1e8 (100. *. c.bandwidth)

let create ~sim ~rng config =
  if config.hops < 1 then invalid_arg "Dumbbell.create: hops";
  if config.bandwidth <= 0. then invalid_arg "Dumbbell.create: bandwidth";
  if config.rtt <= 0. then invalid_arg "Dumbbell.create: rtt";
  let routers = Array.init (config.hops + 1) (fun id -> Node.create ~id) in
  let mk_hop () =
    Link.make ~sim ~bandwidth:config.bandwidth ~delay:(hop_prop config)
      ~queue:(make_queue ~sim ~rng config)
  in
  (* Forward link, then reverse, hop by hop: with one hop, [rng] splits
     in the order the paper's dumbbell always had. *)
  let hops =
    Array.init config.hops (fun i ->
        let fwd = mk_hop () in
        let bwd = mk_hop () in
        Link.connect fwd (Node.receive routers.(i + 1));
        Link.connect bwd (Node.receive routers.(i));
        (fwd, bwd))
  in
  let forward, backward = Array.split hops in
  Node.set_default_route routers.(0) forward.(0);
  Node.set_default_route routers.(config.hops) backward.(config.hops - 1);
  {
    sim;
    config;
    routers;
    forward;
    backward;
    next_node_id = config.hops + 1;
    next_flow_id = 0;
    all_links =
      Array.fold_left (fun acc (fwd, bwd) -> bwd :: fwd :: acc) [] hops;
  }

let sim t = t.sim
let config t = t.config
let bottleneck ?(hop = 0) t = t.forward.(hop)
let bottleneck_rev t = t.backward.(0)
let links t = List.rev t.all_links

let fresh_node_id t =
  let id = t.next_node_id in
  t.next_node_id <- id + 1;
  id

let fresh_flow t =
  let id = t.next_flow_id in
  t.next_flow_id <- id + 1;
  id

let edge_link t ~extra_delay =
  let l =
    Link.make ~sim:t.sim ~bandwidth:(edge_bandwidth t.config)
      ~delay:(edge_prop t.config +. extra_delay)
      ~queue:(Droptail.make ~capacity:100000)
  in
  t.all_links <- l :: t.all_links;
  l

let attach t ~extra_delay ~site =
  if site < 0 || site > t.config.hops then
    invalid_arg "Dumbbell.add_host: site out of range";
  let host = Node.create ~id:(fresh_node_id t) in
  let up = edge_link t ~extra_delay and down = edge_link t ~extra_delay in
  Link.connect up (Node.receive t.routers.(site));
  Link.connect down (Node.receive host);
  Node.set_default_route host up;
  (* The host's router delivers to it; the end routers reach every other
     host by their default route, and the routers between them learn
     which way along the chain it lies. *)
  Array.iteri
    (fun i router ->
      if i = site then Node.add_route router ~dst:(Node.id host) down
      else if i > 0 && i < t.config.hops then
        Node.add_route router ~dst:(Node.id host)
          (if i < site then t.forward.(i) else t.backward.(i - 1)))
    t.routers;
  host

let add_host t ~site = attach t ~extra_delay:0. ~site

let add_host_pair ?(extra_delay = 0.) t =
  if extra_delay < 0. then invalid_arg "Dumbbell.add_host_pair: extra_delay";
  let left = attach t ~extra_delay ~site:0 in
  let right = attach t ~extra_delay ~site:t.config.hops in
  (left, right)

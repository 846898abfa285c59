(** The RED dumbbell, the paper's only topology, and its multi-hop
    chain.

    Routers [0 .. hops] are joined by one bottleneck link per hop and
    direction; hosts hang off any router on edge links fast enough never
    to queue.  [hops = 1] is the paper's dumbbell.  A flow from a host at
    router [i] to one at router [j] crosses hops [i .. j-1], so on a
    longer chain a flow over every hop competes with cross traffic on
    each of them.

    {v
      R0 ──hop 0── R1 ──hop 1── R2
      │            │            │
     hosts        hosts        hosts
    v}

    Default dimensioning follows the paper, per hop: queue capacity
    2.5 x BDP, RED [min_th] 0.25 x BDP and [max_th] 1.25 x BDP, where the
    BDP is [bandwidth x rtt]; round-trip time 50 ms.  Edge links take
    [rtt/20] each way and the hops share the rest, so a host pair at the
    two ends has a base RTT of exactly [rtt] whatever [hops] is. *)

type queue_kind =
  | Red  (** RED, paper dimensioning *)
  | Red_ecn  (** RED that marks instead of dropping *)
  | Droptail  (** FIFO with capacity 2.5 x BDP *)
  | Custom of (unit -> Queue_intf.t)

type config = {
  bandwidth : float;  (** every bottleneck hop, bits/s *)
  rtt : float;  (** base two-way propagation RTT end to end, seconds *)
  pkt_size : int;  (** nominal packet size for dimensioning, bytes *)
  queue : queue_kind;  (** built once per hop and direction *)
  hops : int;  (** bottleneck hops in the chain, >= 1 *)
}

(** 50 ms RTT, 1000-byte packets, RED queue, one hop. *)
val default_config : bandwidth:float -> config

(** Bandwidth-delay product in packets for this config. *)
val bdp_packets : config -> float

type t

(** @raise Invalid_argument unless [hops >= 1], [bandwidth > 0] and
    [rtt > 0]. *)
val create : sim:Engine.Sim.t -> rng:Engine.Rng.t -> config -> t

val sim : t -> Engine.Sim.t
val config : t -> config

(** Forward (router [hop] to [hop+1]) bottleneck link of [hop], default
    0: the congested direction in all scenarios. *)
val bottleneck : ?hop:int -> t -> Link.t

(** Reverse (router 1 to router 0) bottleneck link of hop 0. *)
val bottleneck_rev : t -> Link.t

(** Every link of the topology (both directions of every hop, then all
    edge links), in creation order — for audit sweeps and per-flow drop
    accounting. *)
val links : t -> Link.t list

(** Attach a new host at router [site], fully routed.
    @raise Invalid_argument unless [0 <= site <= hops]. *)
val add_host : t -> site:int -> Node.t

(** A new host at each end of the chain (sites 0 and [hops]).  Data can
    flow either way between them.  [extra_delay] raises this pair's RTT
    by [4 x extra_delay] over the base. *)
val add_host_pair : ?extra_delay:float -> t -> Node.t * Node.t

(** Fresh flow identifier, unique within this dumbbell. *)
val fresh_flow : t -> int

(** Network node: routes packets by destination and dispatches packets
    addressed to itself to per-flow agent handlers.

    Routes live in an array indexed by destination node id, so
    forwarding is a bounds-checked load.  Handlers live in a sorted
    table of disjoint flow-id ranges, one (first id, count, handler)
    entry per {!attach}: an n-slot window engine registers one entry per
    node, not n, and delivery is a binary search over the entries. *)

type t

val create : id:int -> t
val id : t -> int

(** Route packets destined to node [dst] over [link].  [dst] indexes an
    array grown to cover it, so node ids should be small, as
    [Dumbbell] numbers them from a counter.
    @raise Invalid_argument if [dst < 0]. *)
val add_route : t -> dst:int -> Link.t -> unit

(** Route for any destination without an explicit entry. *)
val set_default_route : t -> Link.t -> unit

(** [attach t ~count ~flow handler] sends packets of flow ids
    [flow .. flow+count-1] terminating here to [handler] ([count]
    defaults to 1).  Attaching exactly an attached range replaces its
    handler.  Any id may be attached, negative and huge ones included.
    @raise Invalid_argument if [count < 1], the range passes [max_int],
    or it partly overlaps an attached range. *)
val attach : t -> ?count:int -> flow:int -> (Packet.t -> unit) -> unit

(** Stop dispatching [flow]; a no-op for an unattached id.  Detaching one
    id of a wider range leaves the rest of the range attached. *)
val detach : t -> flow:int -> unit

(** Deliver a packet to this node: dispatch locally if [pkt.dst] is this
    node, otherwise forward along the route.  Packets for unknown flows or
    destinations are silently discarded (counted). *)
val receive : t -> Packet.t -> unit

(** Entry point for locally generated packets (agents call this). *)
val inject : t -> Packet.t -> unit

(** Packets discarded for lack of a route or local handler. *)
val discarded : t -> int

(** Hook invoked for every discarded packet (monitoring / per-flow
    accounting in the fuzzer). *)
val on_discard : t -> (Packet.t -> unit) -> unit

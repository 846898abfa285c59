(** Simulated packets.

    Fields are mutable so the pooled allocators ({!alloc_ack},
    {!alloc_tfrc_fb}) can reuse released shells in place, but outside the
    pool machinery a packet must be treated as immutable apart from ECN
    marking; transport-specific control information rides in [payload].

    A packet carries no identity or send time of its own: [pp], the
    lifetime audit and {!Trace} name it by flow, seq and [gen], and a
    sender that samples RTTs keeps its own send times (one probe time
    per window flow, a per-seq table in BBR and Vegas, a timestamp in
    the TFRC payload).  So a data packet is nine fields with no boxed
    float, and minting one touches no state shared between
    domains. *)

type tfrc_feedback = {
  loss_event_rate : float;  (** receiver's current loss-event rate estimate *)
  recv_rate : float;  (** bytes/s received over the last RTT *)
  timestamp_echo : float;  (** sender timestamp being echoed, for RTT *)
  delay_echo : float;  (** receiver-side hold time to subtract *)
  new_loss : bool;  (** a new loss event occurred since the last feedback *)
}

type payload =
  | Plain
  | Ack of {
      mutable cum_seq : int;
          (** cumulative: all seq < cum_seq received *)
      mutable sack : (int * int) list;
          (** selective-ack blocks [lo, hi), newest first, at most 3 *)
    }
  | Rap_ack of { cum_seq : int; recv_rate : float }
  | Tfrc_data of { timestamp : float; rtt_estimate : float }
  | Tfrc_fb of tfrc_feedback
  | Tear_fb of {
      rate_pps : float;  (** receiver-computed TCP-fair rate *)
      timestamp_echo : float;
      delay_echo : float;
    }

type t = {
  mutable flow : int;  (** flow identifier; sinks dispatch on this *)
  mutable src : int;  (** source node id *)
  mutable dst : int;  (** destination node id *)
  mutable size : int;  (** bytes on the wire *)
  mutable seq : int;  (** data sequence number, in packets *)
  mutable payload : payload;
  mutable ecn : bool;  (** congestion-experienced mark *)
  mutable pooled : bool;
      (** freelist bookkeeping: true while a pooled packet is live; do
          not touch outside {!release} *)
  mutable gen : int;
      (** lifetime-audit generation counter: bumped on each release when
          {!Engine.Audit.lifetime_on}; 0 on fresh shells.  Do not touch. *)
}

(** A zero/placeholder packet for preallocated slots (never transmitted). *)
val dummy : t

(** [make ()] allocates a fresh, unpooled packet.  Defaults:
    [size = 1000] bytes, [payload = Plain], [seq = 0]. *)
val make :
  ?size:int ->
  ?seq:int ->
  ?payload:payload ->
  flow:int ->
  src:int ->
  dst:int ->
  unit ->
  t

(** {2 Pooled allocation}

    Receivers emit one ack (or feedback) per data packet; these
    constructors draw the packet shell from a per-domain freelist and —
    for acks — mutate the payload in place, so the steady-state re-emit
    path allocates nothing.  The consumer that finishes with a pooled
    packet calls {!release} to return it; a missed release is harmless
    (the GC reclaims it), a double release is a guarded no-op. *)

val alloc_ack :
  size:int ->
  flow:int ->
  src:int ->
  dst:int ->
  cum_seq:int ->
  sack:(int * int) list ->
  t

val alloc_tfrc_fb :
  size:int -> flow:int -> src:int -> dst:int -> tfrc_feedback -> t

(** Return a pooled packet to the freelist.  No-op on packets not made by
    the pooled allocators or already released — except under
    {!Engine.Audit.lifetime_on}, where releasing an already-released
    shell raises [Engine.Audit.Violation] (double release), and released
    shells get their mutable fields poisoned so stale reuse is caught by
    {!check_live}. *)
val release : t -> unit

(** Lifetime-audit probe: raises [Engine.Audit.Violation] if the packet
    is a released shell re-entering the network (use-after-release) or
    still carries release-time poison in [seq] or an [Ack] payload (dirty
    reuse).  Call sites gate on {!Engine.Audit.lifetime_on}. *)
val check_live : t -> unit

(** Global pooled-allocation switch (default on).  When off, the pooled
    allocators return fresh unpooled shells and {!release} returns
    nothing to the freelist — the differential fuzzer uses this to check
    pooled and fresh allocation produce byte-identical runs.  Toggle only
    between simulations, never during one. *)
val set_pooling : bool -> unit

val pooling : unit -> bool

val is_ack : t -> bool

(** [pkt flow=F seq=S gen=G SRC->DST size=B]. *)
val pp : Format.formatter -> t -> unit

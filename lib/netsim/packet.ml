type tfrc_feedback = {
  loss_event_rate : float;
  recv_rate : float;
  timestamp_echo : float;
  delay_echo : float;
  new_loss : bool;
}

type payload =
  | Plain
  | Ack of { mutable cum_seq : int; mutable sack : (int * int) list }
  | Rap_ack of { cum_seq : int; recv_rate : float }
  | Tfrc_data of { timestamp : float; rtt_estimate : float }
  | Tfrc_fb of tfrc_feedback
  | Tear_fb of {
      rate_pps : float;
      timestamp_echo : float;
      delay_echo : float;
    }

type t = {
  mutable flow : int;
  mutable src : int;
  mutable dst : int;
  mutable size : int;
  mutable seq : int;
  mutable payload : payload;
  mutable ecn : bool;
  mutable pooled : bool;
  mutable gen : int;
}

let dummy =
  {
    flow = -1;
    src = -1;
    dst = -1;
    size = 0;
    seq = 0;
    payload = Plain;
    ecn = false;
    pooled = false;
    gen = 0;
  }

let make ?(size = 1000) ?(seq = 0) ?(payload = Plain) ~flow ~src ~dst () =
  { flow; src; dst; size; seq; payload; ecn = false; pooled = false; gen = 0 }

(* ------------------------------------------------------------------ *)
(* Freelist                                                            *)
(* ------------------------------------------------------------------ *)

(* Per-domain (Domain.DLS) so parallel Engine.Pool workers never share a
   freelist; a packet is always allocated, consumed and released inside
   one simulation, hence one domain.  A fixed-capacity array stack, not a
   list: pushing must not cons. *)

type freelist = { items : t array; mutable len : int }

let freelist_capacity = 256

let freelist_key =
  Domain.DLS.new_key (fun () ->
      { items = Array.make freelist_capacity dummy; len = 0 })

(* Global pooling switch (differential fuzzing): when off, the pooled
   allocators degrade to [make] (fresh shell every call, [pooled] stays
   false so [release] is a no-op) and [release] returns nothing to the
   freelist.  Plain bool — toggled between runs, never mid-run. *)
let pooling_enabled = ref true

let set_pooling b = pooling_enabled := b
let pooling () = !pooling_enabled

(* Lifetime-mode poison values: written into a shell on release, always
   overwritten by a legitimate [recycle]/[alloc_ack], so any packet still
   carrying one was either used after release or recycled by a path that
   forgot to reset the field.  [min_int] can never be a real sequence
   number (sequences count sent packets from 0). *)
let poison_seq = min_int

let release p =
  if p.pooled then begin
    p.pooled <- false;
    if Engine.Audit.lifetime_on () then begin
      p.gen <- p.gen + 1;
      p.seq <- poison_seq;
      p.ecn <- true;
      match p.payload with
      | Ack a ->
        a.cum_seq <- poison_seq;
        a.sack <- [ (poison_seq, poison_seq) ]
      | Plain | Rap_ack _ | Tfrc_data _ | Tfrc_fb _ | Tear_fb _ -> ()
    end;
    if !pooling_enabled then begin
      let fl = Domain.DLS.get freelist_key in
      if fl.len < freelist_capacity then begin
        Array.unsafe_set fl.items fl.len p;
        fl.len <- fl.len + 1
      end
      (* Overflow: drop the packet; the GC reclaims it like any other. *)
    end
  end
  else if Engine.Audit.lifetime_on () && p.gen > 0 then
    (* A shell with a non-zero generation and [pooled = false] is either
       on the freelist or already dead; a second [release] means two
       owners both believed they were the last consumer. *)
    Engine.Audit.fail
      "Packet.release: double release of shell flow=%d seq=%d gen=%d" p.flow
      p.seq p.gen

(* Detect a shell that re-entered the network after release, or one a
   recycler forgot to scrub.  Called from [Link.send] (the injection
   chokepoint every transmitted packet crosses) under [lifetime_on]. *)
let check_live p =
  if (not p.pooled) && p.gen > 0 then
    Engine.Audit.fail
      "Packet: use-after-release — released shell flow=%d seq=%d gen=%d \
       re-entered the network"
      p.flow p.seq p.gen;
  if p.seq = poison_seq then
    Engine.Audit.fail
      "Packet: dirty reuse — shell flow=%d gen=%d carries a poisoned seq \
       (recycle path failed to reset it)"
      p.flow p.gen;
  match p.payload with
  | Ack a ->
    if a.cum_seq = poison_seq then
      Engine.Audit.fail
        "Packet: dirty reuse — ack shell flow=%d seq=%d gen=%d carries a \
         poisoned cum_seq (alloc_ack failed to reset it)"
        p.flow p.seq p.gen;
    (match a.sack with
    | (lo, _) :: _ when lo = poison_seq ->
      Engine.Audit.fail
        "Packet: dirty reuse — ack shell flow=%d seq=%d gen=%d carries \
         poisoned sack blocks (alloc_ack failed to reset them)"
        p.flow p.seq p.gen
    | _ -> ())
  | Plain | Rap_ack _ | Tfrc_data _ | Tfrc_fb _ | Tear_fb _ -> ()

(* Take a packet shell from the freelist (or allocate one) and refill the
   common fields.  [payload] is left untouched for the caller to reuse or
   replace. *)
let recycle ~size ~flow ~src ~dst =
  let fl = Domain.DLS.get freelist_key in
  if !pooling_enabled && fl.len > 0 then begin
    fl.len <- fl.len - 1;
    let p = Array.unsafe_get fl.items fl.len in
    Array.unsafe_set fl.items fl.len dummy;
    p.flow <- flow;
    p.src <- src;
    p.dst <- dst;
    p.size <- size;
    p.seq <- 0;
    p.ecn <- false;
    p.pooled <- true;
    p
  end
  else begin
    let p = make ~size ~flow ~src ~dst () in
    p.pooled <- !pooling_enabled;
    p
  end

let alloc_ack ~size ~flow ~src ~dst ~cum_seq ~sack =
  let p = recycle ~size ~flow ~src ~dst in
  (match p.payload with
  | Ack a ->
    a.cum_seq <- cum_seq;
    a.sack <- sack
  | Plain | Rap_ack _ | Tfrc_data _ | Tfrc_fb _ | Tear_fb _ ->
    p.payload <- Ack { cum_seq; sack });
  p

let alloc_tfrc_fb ~size ~flow ~src ~dst fb =
  let p = recycle ~size ~flow ~src ~dst in
  p.payload <- Tfrc_fb fb;
  p

let is_ack t =
  match t.payload with
  | Ack _ | Rap_ack _ | Tfrc_fb _ | Tear_fb _ -> true
  | Plain | Tfrc_data _ -> false

let pp fmt t =
  Format.fprintf fmt "pkt flow=%d seq=%d gen=%d %d->%d size=%d" t.flow t.seq
    t.gen t.src t.dst t.size

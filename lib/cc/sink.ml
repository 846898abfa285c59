module IntSet = Set.Make (Int)

let ack_size = 40

type t = {
  sim : Engine.Sim.t;
  node : Netsim.Node.t;
  flow : int;
  peer : int;
  sack : bool;  (* compute SACK blocks on each ack (senders without SACK
                   ignore them, so skipping the per-ack fold over the
                   out-of-order set is behavior-identical and removes the
                   sink from the allocation profile entirely) *)
  mutable next_expected : int;
  mutable out_of_order : IntSet.t;
  mutable bytes : int;
  mutable pkts : int;
  mutable last_ecn : bool;
}

(* Contiguous runs of the out-of-order set as SACK blocks [lo, hi),
   highest (most useful) first, at most three. *)
let sack_blocks t =
  let runs, current =
    IntSet.fold
      (fun seq (runs, current) ->
        match current with
        | Some (lo, hi) when seq = hi -> (runs, Some (lo, hi + 1))
        | Some run -> (run :: runs, Some (seq, seq + 1))
        | None -> (runs, Some (seq, seq + 1)))
      t.out_of_order ([], None)
  in
  let runs = match current with Some run -> run :: runs | None -> runs in
  List.filteri (fun i _ -> i < 3) runs

let send_ack t =
  let sack = if t.sack then sack_blocks t else [] in
  let ack =
    Netsim.Packet.alloc_ack ~size:ack_size ~flow:t.flow
      ~src:(Netsim.Node.id t.node) ~dst:t.peer
      ~sent_at:(Engine.Sim.now t.sim)
      ~cum_seq:t.next_expected ~sack
  in
  ack.Netsim.Packet.ecn <- t.last_ecn;
  t.last_ecn <- false;
  Netsim.Node.inject t.node ack

let handle t (pkt : Netsim.Packet.t) =
  match pkt.Netsim.Packet.payload with
  | Netsim.Packet.Plain | Netsim.Packet.Tfrc_data _ ->
    t.bytes <- t.bytes + pkt.Netsim.Packet.size;
    t.pkts <- t.pkts + 1;
    t.last_ecn <- t.last_ecn || pkt.Netsim.Packet.ecn;
    let seq = pkt.Netsim.Packet.seq in
    if seq = t.next_expected then begin
      t.next_expected <- seq + 1;
      while IntSet.mem t.next_expected t.out_of_order do
        t.out_of_order <- IntSet.remove t.next_expected t.out_of_order;
        t.next_expected <- t.next_expected + 1
      done
    end
    else if seq > t.next_expected then
      t.out_of_order <- IntSet.add seq t.out_of_order;
    send_ack t
  | Netsim.Packet.Ack _ | Netsim.Packet.Rap_ack _ | Netsim.Packet.Tfrc_fb _
  | Netsim.Packet.Tear_fb _ ->
    ()

let attach ~sack ~sim ~node ~flow ~peer =
  let t =
    {
      sim;
      node;
      flow;
      peer;
      sack;
      next_expected = 0;
      out_of_order = IntSet.empty;
      bytes = 0;
      pkts = 0;
      last_ecn = false;
    }
  in
  Netsim.Node.attach node ~flow (handle t);
  t

let bytes_received t = float_of_int t.bytes
let pkts_received t = t.pkts
let cumulative t = t.next_expected

(* Fluid fast-forward support: [ff_credit] folds packets carried by the
   fluid model into the delivery counters (no acks are generated — the
   frozen sender would ignore them); [fast_forward] jumps the receive
   frontier to [next_expected] on thaw so the resumed sender's first
   packet at its new frontier looks in-order.  The out-of-order buffer is
   dropped: anything buffered predates the jump. *)
let ff_credit t ~pkts ~pkt_size =
  if pkts < 0 then invalid_arg "Sink.ff_credit: negative credit";
  t.bytes <- t.bytes + (pkts * pkt_size);
  t.pkts <- t.pkts + pkts

let fast_forward t ~next_expected =
  if next_expected < t.next_expected then
    invalid_arg "Sink.fast_forward: frontier moves forward only";
  t.next_expected <- next_expected;
  t.out_of_order <- IntSet.empty

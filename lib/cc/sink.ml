module IntSet = Set.Make (Int)

let ack_size = 40

type t = {
  sim : Engine.Sim.t;
  node : Netsim.Node.t;
  flow : int;
  peer : int;
  mutable next_expected : int;
  mutable out_of_order : IntSet.t;
  mutable bytes : int;
  mutable pkts : int;
  mutable last_ecn : bool;
}

let send_ack t =
  let ack =
    Netsim.Packet.make ~size:ack_size ~seq:0 ~flow:t.flow
      ~src:(Netsim.Node.id t.node) ~dst:t.peer
      ~payload:(Netsim.Packet.Ack { cum_seq = t.next_expected; sack = [] })
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

let attach ~sim ~node ~flow ~peer =
  let t =
    {
      sim;
      node;
      flow;
      peer;
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

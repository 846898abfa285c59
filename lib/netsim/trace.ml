type t = {
  sim : Engine.Sim.t;
  out : Format.formatter;
  mutable active : bool;
  mutable events : int;
}

let log t tag (pkt : Packet.t) =
  if t.active then begin
    t.events <- t.events + 1;
    Format.fprintf t.out "%s %.6f %d %d %d@." tag (Engine.Sim.now t.sim)
      pkt.Packet.flow pkt.Packet.seq pkt.Packet.size
  end

let attach ~sim ~out link =
  let t = { sim; out; active = true; events = 0 } in
  Link.on_departure link (log t "d");
  Link.on_drop link (log t "x");
  t

let events t = t.events
let stop t = t.active <- false

type state = { mutable rate : float }
type t = state Rate_flow.t

let create ~sim ~src ~dst ~flow ~rate ~pkt_size =
  if rate <= 0. then invalid_arg "Cbr.create: rate must be positive";
  Rate_flow.create ~sim ~src ~dst ~flow ~pkt_size
    ~gap:(fun t -> float_of_int (pkt_size * 8) /. (Rate_flow.state t).rate)
    { rate }

let flow t = Rate_flow.flow t ~protocol:"cbr" ~srtt:(fun () -> 0.)

let set_rate t rate =
  if rate <= 0. then invalid_arg "Cbr.set_rate: rate must be positive";
  (Rate_flow.state t).rate <- rate

let rate t = (Rate_flow.state t).rate

type rule = {
  name : string;
  increase : float -> float;
  decrease : float -> float;
}

let aimd ~a ~b =
  if a <= 0. || b <= 0. || b >= 1. then invalid_arg "Window_cc.aimd";
  {
    name = Printf.sprintf "aimd(a=%g,b=%g)" a b;
    increase = (fun _ -> a);
    decrease = (fun w -> (1. -. b) *. w);
  }

let tcp_compatible_aimd ~b =
  let a = 4. *. ((2. *. b) -. (b *. b)) /. 3. in
  { (aimd ~a ~b) with name = Printf.sprintf "tcp(%g)" b }

let binomial ~k ~l ~a ~b =
  if a <= 0. || b <= 0. then invalid_arg "Window_cc.binomial";
  {
    name = Printf.sprintf "binomial(k=%g,l=%g,a=%g,b=%g)" k l a b;
    increase = (fun w -> a /. (w ** k));
    decrease = (fun w -> w -. (b *. (w ** l)));
  }

type config = {
  rule : rule;
  sack : bool;
  pkt_size : int;
  initial_window : float;
  initial_ssthresh : float option;
  max_window : float;
  min_rto : float;
  total_pkts : int option;
  on_complete : (int -> unit) option;
}

let default_config rule =
  {
    rule;
    sack = false;
    pkt_size = 1000;
    initial_window = 2.;
    initial_ssthresh = None;
    max_window = 10000.;
    min_rto = 0.2;
    total_pkts = None;
    on_complete = None;
  }

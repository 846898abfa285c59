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

(* Deterministic steady-state sawtooth of [rule] at loss-event rate [p]:
   one loss event every 1/p packets.  A cycle starts at w0 = decrease(W),
   grows by increase(w) per RTT (the amount grow_window's per-ack
   increments sum to over one window of acks), and ends at peak W once
   the cycle has carried 1/p packets.  The peak is the fixed point of
   that map; iterate it.  For AIMD(1, 1/2) this reproduces the classic
   sqrt(3/(2p)) packets-per-RTT average (Analysis.Response_function's
   [pure_aimd]); for the binomial rules it is the paper's generalized
   sawtooth.  Returns (average packets per RTT, peak window), or [None]
   when [p] gives no finite cycle. *)
let sawtooth_model ~rule ~max_window ~p =
  if (not (Float.is_finite p)) || p <= 0. || p >= 1. then None
  else begin
    let target = 1. /. p in
    let cycle w_peak =
      let w = ref (Float.max 1. (rule.decrease w_peak)) in
      let pkts = ref 0. and rtts = ref 0 in
      while !pkts < target && !rtts < 1_000_000 do
        pkts := !pkts +. !w;
        incr rtts;
        w := Float.min max_window (!w +. Float.max 0. (rule.increase !w))
      done;
      (!w, !pkts, !rtts)
    in
    let w = ref 10. in
    (try
       for _ = 1 to 64 do
         let w', _, _ = cycle !w in
         if Float.abs (w' -. !w) <= 1e-9 *. Float.max 1. !w then begin
           w := w';
           raise Exit
         end;
         w := w'
       done
     with Exit -> ());
    let w_peak, pkts, rtts = cycle !w in
    if rtts = 0 then None else Some (pkts /. float_of_int rtts, w_peak)
  end

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

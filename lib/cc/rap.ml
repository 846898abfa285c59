let log_src = Logs.Src.create "slowcc.rap" ~doc:"RAP events"

module Log = (val Logs.src_log log_src)

type config = { a : float; b : float; pkt_size : int }

let max_rate_pps = 1e6 (* safety cap on the sending rate *)

let tcp_compatible_config ~b =
  if b <= 0. || b >= 1. then invalid_arg "Rap.tcp_compatible_config";
  let a = 4. *. ((2. *. b) -. (b *. b)) /. 3. in
  { a; b; pkt_size = 1000 }

type state = {
  cfg : config;
  mutable w : float;  (* packets per RTT *)
  mutable no_decrease_until : float;  (* at most one decrease per RTT *)
  outstanding : (int, float) Hashtbl.t;  (* seq -> send time *)
  mutable n_loss_events : int;
}

type t = state Rate_flow.t

let rate_pps t =
  Float.min max_rate_pps ((Rate_flow.state t).w /. Rate_flow.rtt t)

(* An ack for [s] implies everything <= s - 3 still outstanding was lost. *)
let detect_losses t s ~acked_seq =
  let lost = ref false in
  let threshold = acked_seq - 3 in
  Hashtbl.iter
    (fun seq _ -> if seq <= threshold then lost := true)
    s.outstanding;
  if !lost then begin
    Hashtbl.reset s.outstanding;
    let now = Rate_flow.now t in
    if now >= s.no_decrease_until then begin
      s.n_loss_events <- s.n_loss_events + 1;
      Log.debug (fun m ->
          m "t=%.3f flow=%d loss event: w=%.1f -> %.1f" now
            (Rate_flow.flow_id t) s.w ((1. -. s.cfg.b) *. s.w));
      s.w <- Float.max 1. ((1. -. s.cfg.b) *. s.w);
      s.no_decrease_until <- now +. Rate_flow.rtt t
    end
  end

let handle_ack t (pkt : Netsim.Packet.t) =
  if Rate_flow.running t then
    match pkt.Netsim.Packet.payload with
    | Netsim.Packet.Rap_ack { cum_seq = acked_seq } ->
      let s = Rate_flow.state t in
      (match Hashtbl.find_opt s.outstanding acked_seq with
      | Some sent ->
        Hashtbl.remove s.outstanding acked_seq;
        Rate_flow.sample_rtt t ~gain:0.125 ~sent
      | None -> ());
      detect_losses t s ~acked_seq;
      (* Per-ack additive increase a/w, suppressed during the one-RTT
         blackout that follows a decrease. *)
      if Rate_flow.now t >= s.no_decrease_until then
        s.w <- s.w +. (s.cfg.a /. s.w)
    | Netsim.Packet.Plain | Netsim.Packet.Ack _ | Netsim.Packet.Tfrc_data _
    | Netsim.Packet.Tfrc_fb _ | Netsim.Packet.Tear_fb _ ->
      ()

(* Each data packet's send time, recorded just before it leaves. *)
let stamp t =
  Hashtbl.replace (Rate_flow.state t).outstanding (Rate_flow.seq t)
    (Rate_flow.now t);
  Netsim.Packet.Plain

(* The receiver acks every data packet by its sequence number. *)
let ack t (pkt : Netsim.Packet.t) =
  Rate_flow.reply t (Netsim.Packet.Rap_ack { cum_seq = pkt.Netsim.Packet.seq })

let create ~sim ~src ~dst ~flow cfg =
  if cfg.a <= 0. || cfg.b <= 0. || cfg.b >= 1. then invalid_arg "Rap.create";
  let t =
    Rate_flow.create ~sim ~src ~dst ~flow ~pkt_size:cfg.pkt_size ~payload:stamp
      ~gap:(fun t -> 1. /. rate_pps t)
      ~receive:ack
      {
        cfg;
        w = 1.;
        no_decrease_until = 0.;
        outstanding = Hashtbl.create 64;
        n_loss_events = 0;
      }
  in
  Netsim.Node.attach src ~flow (handle_ack t);
  t

let flow t =
  Rate_flow.flow t
    ~protocol:(Printf.sprintf "rap(b=%g)" (Rate_flow.state t).cfg.b)

let window t = (Rate_flow.state t).w
let loss_events t = (Rate_flow.state t).n_loss_events

type t =
  | Tcp of float
  | Tcp_sack of float
  | Rap of float
  | Sqrt of float
  | Iiad of float
  | Tfrc of { k : int; conservative : bool; conservative_c : float }
  | Tear of int
  | Bbr
  | Vegas of { alpha : float; beta : float }

(* Written so that NaN, which fails every comparison, is rejected too. *)
let check_gamma gamma =
  if not (Float.is_finite gamma && gamma >= 1.5) then
    invalid_arg
      "Protocol: finite gamma >= 1.5 required (gamma = 2 is standard TCP)"

let tcp ~gamma =
  check_gamma gamma;
  Tcp gamma

let tcp_sack ~gamma =
  check_gamma gamma;
  Tcp_sack gamma

let rap ~gamma =
  check_gamma gamma;
  Rap gamma

let sqrt_ ~gamma =
  check_gamma gamma;
  Sqrt gamma

let iiad ~gamma =
  check_gamma gamma;
  Iiad gamma

let tfrc ?(conservative = false) ?(conservative_c = 1.1) ~k () =
  if k < 1 then invalid_arg "Protocol.tfrc: k >= 1";
  Tfrc { k; conservative; conservative_c }

let tear ~rounds =
  if rounds < 1 then invalid_arg "Protocol.tear: rounds >= 1";
  Tear rounds

let bbr = Bbr

let vegas ?(alpha = 2.) ?(beta = 4.) () =
  (* NaN fails every comparison, and a finite beta bounds alpha. *)
  if not (0. <= alpha && alpha <= beta && Float.is_finite beta) then
    invalid_arg "Protocol.vegas: need finite 0 <= alpha <= beta";
  Vegas { alpha; beta }

let name = function
  | Tcp g -> Printf.sprintf "TCP(1/%g)" g
  | Tcp_sack g -> Printf.sprintf "TCP-SACK(1/%g)" g
  | Rap g -> Printf.sprintf "RAP(1/%g)" g
  | Sqrt g -> Printf.sprintf "SQRT(1/%g)" g
  | Iiad g -> Printf.sprintf "IIAD(1/%g)" g
  | Tfrc { k; conservative; _ } ->
    Printf.sprintf "TFRC(%d)%s" k (if conservative then "+SC" else "")
  | Tear rounds -> Printf.sprintf "TEAR(%d)" rounds
  | Bbr -> "BBR"
  | Vegas { alpha; beta } -> Printf.sprintf "VEGAS(%g,%g)" alpha beta

let to_string = function
  | Tcp g -> Printf.sprintf "tcp:%g" g
  | Tcp_sack g -> Printf.sprintf "tcp-sack:%g" g
  | Rap g -> Printf.sprintf "rap:%g" g
  | Sqrt g -> Printf.sprintf "sqrt:%g" g
  | Iiad g -> Printf.sprintf "iiad:%g" g
  | Tfrc { k; conservative = true; _ } -> Printf.sprintf "tfrc+sc:%d" k
  | Tfrc { k; _ } -> Printf.sprintf "tfrc:%d" k
  | Tear rounds -> Printf.sprintf "tear:%d" rounds
  | Bbr -> "bbr"
  | Vegas { alpha; beta } -> Printf.sprintf "vegas:%g-%g" alpha beta

(* Parse into a thunk first so the constructors' range checks run in one
   place, where their [Invalid_argument] becomes an [Error]. *)
let of_string s =
  let gamma make g =
    Option.map (fun g () -> make ~gamma:g) (float_of_string_opt g)
  in
  let parsed =
    match String.split_on_char ':' s with
    | [ "tcp"; g ] -> gamma tcp g
    | [ "tcp-sack"; g ] -> gamma tcp_sack g
    | [ "rap"; g ] -> gamma rap g
    | [ "sqrt"; g ] -> gamma sqrt_ g
    | [ "iiad"; g ] -> gamma iiad g
    | [ "tfrc"; k ] ->
      Option.map (fun k () -> tfrc ~k ()) (int_of_string_opt k)
    | [ "tfrc+sc"; k ] ->
      Option.map
        (fun k () -> tfrc ~conservative:true ~k ())
        (int_of_string_opt k)
    | [ "tear"; n ] ->
      Option.map (fun rounds () -> tear ~rounds) (int_of_string_opt n)
    | [ "bbr" ] -> Some (fun () -> bbr)
    | [ "vegas" ] -> Some (fun () -> vegas ())
    | [ "vegas"; ab ] -> (
      match String.split_on_char '-' ab with
      | [ a; b ] -> (
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some alpha, Some beta -> Some (fun () -> vegas ~alpha ~beta ())
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  match parsed with
  | None ->
    Error
      (Printf.sprintf
         "cannot parse protocol %S (try tcp:2, tcp-sack:2, rap:8, sqrt:2, \
          iiad:2, tfrc:6, tfrc+sc:256, tear:8, bbr, vegas, vegas:1-3)"
         s)
  | Some make -> (
    match make () with
    | p -> Ok p
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "protocol %S out of range: %s" s msg))

(* Binomial calibration is deterministic and pure; memoize per gamma.
   The caches are shared across domains when scenarios run on a worker
   pool, so guard them with a mutex — the cached value is a pure function
   of the key, hence any interleaving yields identical results. *)
let cache_mutex = Mutex.create ()
let sqrt_cache : (float, float * float) Hashtbl.t = Hashtbl.create 8
let iiad_cache : (float, float * float) Hashtbl.t = Hashtbl.create 8

let memo cache f gamma =
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache gamma with
  | Some v ->
    Mutex.unlock cache_mutex;
    v
  | None ->
    Mutex.unlock cache_mutex;
    let v = f ~gamma () in
    Mutex.lock cache_mutex;
    Hashtbl.replace cache gamma v;
    Mutex.unlock cache_mutex;
    v

let window_rule = function
  | Tcp gamma | Tcp_sack gamma ->
    Cc.Window_cc.tcp_compatible_aimd ~b:(1. /. gamma)
  | Sqrt gamma ->
    let a, b = memo sqrt_cache (fun ~gamma () -> Analysis.Binomial_calibration.sqrt_params ~gamma ()) gamma in
    Cc.Window_cc.binomial ~k:0.5 ~l:0.5 ~a ~b
  | Iiad gamma ->
    let a, b = memo iiad_cache (fun ~gamma () -> Analysis.Binomial_calibration.iiad_params ~gamma ()) gamma in
    Cc.Window_cc.binomial ~k:1.0 ~l:0.0 ~a ~b
  | Rap _ | Tfrc _ | Tear _ | Bbr | Vegas _ ->
    invalid_arg "Protocol.window_rule: not window-based"

(* BBR has no config record; this matches the 1000-byte packets of every
   other sender's default config. *)
let bbr_pkt_size = 1000

(* Build a flow of protocol [t] between two already-routed nodes; [spawn]
   and the fuzzer's per-site hosts both end up here. *)
let spawn_between ?(ca_start = false) t ~sim ~src ~dst ~flow:flow_id =
  match t with
  | Tcp _ | Tcp_sack _ | Sqrt _ | Iiad _ ->
    let cfg =
      {
        (Cc.Window_cc.default_config (window_rule t)) with
        Cc.Window_cc.sack = (match t with Tcp_sack _ -> true | _ -> false);
        initial_ssthresh = (if ca_start then Some 2. else None);
      }
    in
    Cc.Flow_soa.flow (Cc.Flow_soa.create ~sim ~src ~dst ~base:flow_id ~n:1 cfg) 0
  | Rap gamma ->
    let cfg = Cc.Rap.tcp_compatible_config ~b:(1. /. gamma) in
    Cc.Rap.flow (Cc.Rap.create ~sim ~src ~dst ~flow:flow_id cfg)
  | Tfrc { k; conservative; conservative_c } ->
    let cfg =
      { (Cc.Tfrc.default_config ~k) with conservative; conservative_c }
    in
    Cc.Tfrc.flow (Cc.Tfrc.create ~sim ~src ~dst ~flow:flow_id cfg)
  | Tear rounds ->
    let cfg = { Cc.Tear.default_config with smoothing_rounds = rounds } in
    Cc.Tear.flow (Cc.Tear.create ~sim ~src ~dst ~flow:flow_id cfg)
  | Bbr ->
    Cc.Bbr.flow
      (Cc.Bbr.create ~sim ~src ~dst ~flow:flow_id ~pkt_size:bbr_pkt_size)
  | Vegas { alpha; beta } ->
    let cfg = { Cc.Vegas.default_config with alpha; beta } in
    Cc.Vegas.flow (Cc.Vegas.create ~sim ~src ~dst ~flow:flow_id cfg)

let spawn ?(reverse = false) ?(extra_delay = 0.) ?ca_start t db =
  let sim = Netsim.Dumbbell.sim db in
  let left, right = Netsim.Dumbbell.add_host_pair ~extra_delay db in
  let src, dst = if reverse then (right, left) else (left, right) in
  let flow_id = Netsim.Dumbbell.fresh_flow db in
  spawn_between ?ca_start t ~sim ~src ~dst ~flow:flow_id

(* Hybrid fluid/packet fast-forward: the process-wide mode gate (mirrors
   Scheduler) plus the pure steady-state detector.  The detector is
   deliberately engine-level — it sees only abstract per-link samples
   (loss rate, queue occupancy) and knows nothing about flows or
   protocols; the fluid controller that feeds it and acts on [stable]
   lives in lib/core (Slowcc.Fluid), which can see both. *)

type mode = Off | On

let to_string = function Off -> "off" | On -> "on"

let of_string s =
  match String.lowercase_ascii s with
  | "off" | "0" | "false" -> Some Off
  | "on" | "1" | "true" | "ff" -> Some On
  | _ -> None

(* Off is the builtin default: hybrid results are approximate, so the
   exact packet-level engine must be what you get unless you ask. *)
let builtin_default = Off

let default =
  let init =
    match Sys.getenv_opt "SLOWCC_FF" with
    | None -> builtin_default
    | Some s -> (
        match of_string s with
        | Some m -> m
        | None ->
            Printf.eprintf
              "slowcc: ignoring invalid SLOWCC_FF=%S (want on|off)\n%!" s;
            builtin_default)
  in
  Atomic.make init

let get_default () = Atomic.get default
let set_default m = Atomic.set default m

module Detector = struct
  (* Sliding-window stability test over per-link samples.  A sample is
     (loss rate over the last interval, queue occupancy in packets,
     delivered rate in bytes/s).  The window is stable when it holds
     [window] samples and every series stays inside a relative band
     around its window mean:

       max - min <= rel_tol * max(mean, floor)

     The floor keeps the relative test meaningful near zero (a loss rate
     oscillating between 0 and 0.002 is steady for our purposes; between
     0 and 0.2 it is not).  Queue occupancy uses an absolute-or-relative
     band for the same reason: an empty-to-two-packets flutter on a
     200-packet queue is noise.

     The delivered-rate series is what separates "steady congestion"
     from "pre-congestion growth": during slow-start, loss and
     occupancy both sit flat at zero (trivially in band) while the
     sending rate doubles every RTT — only the rate band refuses to
     arm there. *)
  type config = {
    window : int;  (* samples required before [stable] can be true *)
    loss_rel_tol : float;
    loss_floor : float;  (* loss-rate band floor *)
    queue_rel_tol : float;
    queue_floor : float;  (* occupancy band floor, packets *)
    rate_rel_tol : float;
    rate_floor : float;  (* delivered-rate band floor, bytes/s *)
  }

  let default_config =
    {
      window = 6;
      loss_rel_tol = 0.75;
      loss_floor = 0.01;
      queue_rel_tol = 0.75;
      queue_floor = 4.;
      rate_rel_tol = 0.5;
      rate_floor = 1000.;
    }

  type t = {
    config : config;
    loss : float array;
    occ : float array;
    rate : float array;
    mutable len : int;  (* valid samples, <= window *)
    mutable head : int;  (* next write position *)
  }

  let create ?(config = default_config) () =
    if config.window < 2 then
      invalid_arg "Fastforward.Detector.create: window >= 2";
    {
      config;
      loss = Array.make config.window 0.;
      occ = Array.make config.window 0.;
      rate = Array.make config.window 0.;
      len = 0;
      head = 0;
    }

  let reset t =
    t.len <- 0;
    t.head <- 0

  let observe t ~loss ~occupancy ~rate =
    t.loss.(t.head) <- loss;
    t.occ.(t.head) <- occupancy;
    t.rate.(t.head) <- rate;
    t.head <- (t.head + 1) mod t.config.window;
    if t.len < t.config.window then t.len <- t.len + 1

  let samples t = t.len

  let band_ok a len ~rel_tol ~floor =
    let mn = ref a.(0) and mx = ref a.(0) and sum = ref 0. in
    for i = 0 to len - 1 do
      let v = a.(i) in
      if v < !mn then mn := v;
      if v > !mx then mx := v;
      sum := !sum +. v
    done;
    let mean = !sum /. float_of_int len in
    !mx -. !mn <= rel_tol *. Float.max mean floor

  (* Window mean of the loss-rate series: the fluid model's [p]. *)
  let mean_loss t =
    if t.len = 0 then 0.
    else begin
      let sum = ref 0. in
      for i = 0 to t.len - 1 do
        sum := !sum +. t.loss.(i)
      done;
      !sum /. float_of_int t.len
    end

  let mean_occupancy t =
    if t.len = 0 then 0.
    else begin
      let sum = ref 0. in
      for i = 0 to t.len - 1 do
        sum := !sum +. t.occ.(i)
      done;
      !sum /. float_of_int t.len
    end

  let stable t =
    t.len = t.config.window
    && band_ok t.loss t.len ~rel_tol:t.config.loss_rel_tol
         ~floor:t.config.loss_floor
    && band_ok t.occ t.len ~rel_tol:t.config.queue_rel_tol
         ~floor:t.config.queue_floor
    && band_ok t.rate t.len ~rel_tol:t.config.rate_rel_tol
         ~floor:t.config.rate_floor
end

(** The gamma-parameterized congestion-control families of the paper.

    gamma measures slowness: TCP(1/gamma) and RAP(1/gamma) reduce by a
    factor 1/gamma per loss event, SQRT(1/gamma) reduces by a 1/gamma
    fraction at the reference operating point, and TFRC(gamma) averages the
    loss rate over gamma loss intervals.  Standard TCP is [tcp ~gamma:2.]. *)

type t =
  | Tcp of float  (** TCP(1/gamma): windowed AIMD + slow-start + RTO *)
  | Tcp_sack of float  (** TCP(1/gamma) with selective acknowledgments *)
  | Rap of float  (** RAP(1/gamma): rate-based AIMD, no self-clocking *)
  | Sqrt of float  (** binomial k = l = 1/2, calibrated TCP-compatible *)
  | Iiad of float  (** binomial k = 1, l = 0, calibrated TCP-compatible *)
  | Tfrc of {
      k : int;
      conservative : bool;  (** the paper's self-clocking option *)
      conservative_c : float;  (** the C constant; the paper uses 1.1 *)
    }
  | Tear of int  (** receiver-side TCP emulation, smoothing over n rounds *)
  | Bbr  (** model-based sender: bandwidth/RTT probing state machine, paced *)
  | Vegas of { alpha : float; beta : float }
      (** delay-based sender: standing-queue estimation with base-RTT
          aging and RTT-noise filtering *)

val tcp : gamma:float -> t
val tcp_sack : gamma:float -> t
val rap : gamma:float -> t
val sqrt_ : gamma:float -> t
val iiad : gamma:float -> t
val tfrc : ?conservative:bool -> ?conservative_c:float -> k:int -> unit -> t

(** TEAR with [rounds] smoothed windows (the report uses about 8). *)
val tear : rounds:int -> t

(** BBR-style model-based sender; its model constants are fixed in
    {!Cc.Bbr}. *)
val bbr : t

(** Vegas-style delay-based sender; [alpha]/[beta] bound the standing
    queue in packets (defaults 2 and 4). *)
val vegas : ?alpha:float -> ?beta:float -> unit -> t

val name : t -> string

(** The command-line and reproducer syntax: [tcp:2], [tcp-sack:2],
    [rap:8], [sqrt:2], [iiad:2], [tfrc:6], [tfrc+sc:256], [tear:8],
    [bbr], [vegas], [vegas:1-3] (alpha-beta).  [conservative_c] has no
    syntax: [of_string (to_string p) = Ok p] holds whenever it is the
    default 1.1. *)
val to_string : t -> string

(** Inverse of {!to_string}.  Unknown syntax and values the constructors
    reject (such as [tcp:1], [tfrc:0] or [vegas:5-2]) are [Error]s
    carrying a one-line message; it never raises. *)
val of_string : string -> (t, string) result

(** Create a host pair on the dumbbell and a flow of this protocol from
    left to right ([reverse] for right to left).  The flow is not started.
    [total_pkts] makes it a finite transfer (windowed protocols only).
    [ca_start] makes windowed protocols begin in congestion avoidance at
    their initial window — the paper's "established flow at one packet per
    RTT" premise for transient-fairness experiments (no-op for rate-based
    protocols, which have no slow-start threshold). *)
val spawn :
  ?reverse:bool ->
  ?extra_delay:float ->
  ?pkt_size:int ->
  ?total_pkts:int ->
  ?ca_start:bool ->
  t ->
  Netsim.Dumbbell.t ->
  Cc.Flow.t

(** Build a flow of this protocol between two already-created,
    already-routed nodes — topology-agnostic core of {!spawn}; the fuzzer
    uses it to wire flows across a parking lot.  The caller supplies a
    fresh [flow] id. *)
val spawn_between :
  ?pkt_size:int ->
  ?total_pkts:int ->
  ?ca_start:bool ->
  t ->
  sim:Engine.Sim.t ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  flow:int ->
  Cc.Flow.t

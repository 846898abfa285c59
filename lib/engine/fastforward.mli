(** Hybrid fluid/packet fast-forward: mode gate + steady-state detector.

    [On] lets a fluid controller (lib/core [Slowcc.Fluid]) freeze
    packet-level simulation on links whose loss rate and queue occupancy
    have been stable for a sliding window, advance the attached flows
    analytically, and resume exact packet simulation before the next
    scheduled transient.  Hybrid results are approximate, so [Off] is the
    builtin default and disabled fast-forward is inert: no events, no
    state, byte-identical digests. *)

type mode = Off | On

val to_string : mode -> string

(** Case-insensitive; accepts on/off, 1/0, true/false, "ff". *)
val of_string : string -> mode option

(** Process-wide default used by [Sim.create] when [?fastforward] is
    omitted.  Initialized to [Off], overridable with the [SLOWCC_FF]
    environment variable. *)
val get_default : unit -> mode

val set_default : mode -> unit

(** Sliding-window steady-state test over per-link (loss rate, queue
    occupancy, delivered rate) samples.  Pure bookkeeping: the caller
    samples at its own cadence and acts on {!Detector.stable}. *)
module Detector : sig
  type config = {
    window : int;  (** samples required before [stable] can hold *)
    loss_rel_tol : float;
    loss_floor : float;
    queue_rel_tol : float;
    queue_floor : float;
    rate_rel_tol : float;
    rate_floor : float;
        (** delivered-rate band floor, bytes/s; the rate series is what
            keeps the detector from arming during loss-free growth
            (slow-start), where loss and occupancy are trivially flat *)
  }

  val default_config : config

  type t

  val create : ?config:config -> unit -> t

  (** Drop all samples (called on thaw and after transients). *)
  val reset : t -> unit

  (** Push one sample: loss rate over the last interval, queue
      occupancy in packets, and delivered rate in bytes/s. *)
  val observe : t -> loss:float -> occupancy:float -> rate:float -> unit

  val samples : t -> int

  (** True iff the window is full and every series sits inside the
      configured relative band around its mean. *)
  val stable : t -> bool

  (** Window means, the fluid model's inputs ([p] in particular). *)
  val mean_loss : t -> float

  val mean_occupancy : t -> float
end

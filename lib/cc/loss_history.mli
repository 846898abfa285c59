(** TFRC receiver-side loss-interval history (WALI).

    Maintains the lengths (in packets of sequence space) of the intervals
    between consecutive *loss events*; losses within one RTT of the start
    of a loss event belong to that event.  The loss event rate is the
    inverse of the weighted average of the most recent [k] intervals, where
    the open (current) interval is counted when doing so raises the
    average.  TFRC(k) varies [k]; the deployed default is about 6–8. *)

type t

val create : k:int -> t

(** Sequence-number bookkeeping: call when data seq [seq] arrives in order
    or fills a hole. *)
val note_progress : t -> seq:int -> unit

(** [record_loss t ~seq ~now ~rtt] reports the loss of packet [seq]
    detected at time [now].  Returns [true] when this starts a new loss
    event (i.e. [now] is more than [rtt] past the current event start). *)
val record_loss : t -> seq:int -> now:float -> rtt:float -> bool

(** Replace the (single) first interval with a synthetic length derived by
    inverting the throughput equation — RFC 3448 s6.3.1. *)
val seed_first_interval : t -> float -> unit

(** Current loss event rate estimate; 0 when no loss event yet.  There is
    no RFC 3448 history discounting (the paper's TFRC runs without it). *)
val loss_event_rate : t -> float

val num_loss_events : t -> int

(** Closed intervals, most recent first (tests). *)
val intervals : t -> float list

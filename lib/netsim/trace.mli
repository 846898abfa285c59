(** ns-2-style packet event traces.

    Attach a trace to a link and every departure ("+" would be enqueue in
    ns-2; we log the observable events: departure [d] and drop [x]) is
    written as a text line:

    {v <event> <time> <flow> <seq> <size> v}

    A packet has no identity beyond its flow and seq, so a
    retransmission shows as a second line with the same pair.  Useful
    for debugging protocol dynamics and for piping into external
    plotting. *)

type t

(** [attach ~sim ~out link] starts tracing [link] onto formatter [out]. *)
val attach : sim:Engine.Sim.t -> out:Format.formatter -> Link.t -> t

(** Number of events written so far. *)
val events : t -> int

(** Stop writing further events (hooks stay registered but inert). *)
val stop : t -> unit

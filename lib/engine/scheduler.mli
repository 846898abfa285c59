(** The simulator has one event queue, {!Calendar_queue}.  Outside its
    test, only [benchmark/slowcc_bench.ml] reads this module: it stamps
    the queue in its [--out] file, and its environment guard accepts only
    a value that [of_string] maps to [Calendar].  The module goes with
    those two lines. *)

type kind = Calendar

val to_string : kind -> string

(** [Some Calendar] for calendar or cal (case-insensitive); [None]
    otherwise. *)
val of_string : string -> kind option
val get_default : unit -> kind

(** The simulator has one mode, exact packet-level simulation.  Only
    [benchmark/slowcc_bench.ml] reads this module: it stamps the mode in
    its [--out] file and refuses a [SLOWCC_FF] value other than off.  The
    module goes with those lines. *)

type mode = Off

val to_string : mode -> string

(** [Some Off] for off, 0 or false (case-insensitive); [None] otherwise. *)
val of_string : string -> mode option
val get_default : unit -> mode

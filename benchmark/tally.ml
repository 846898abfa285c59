(* What one pass over a workload's units measured. *)

(* Named sums over the units of a pass: host seconds inside a layer's
   calls, operation counts, exact traffic counts. *)
type sums = (string, float) Hashtbl.t

let sums () : sums = Hashtbl.create 32
let get (t : sums) k = Option.value (Hashtbl.find_opt t k) ~default:0.
let add (t : sums) k v = Hashtbl.replace t k (get t k +. v)

(* Add one sample of the live major heap, in words, after a full
   collection: what the state still reachable from the caller holds.
   Callers take it outside their timings. *)
let add_live (t : sums) =
  Gc.full_major ();
  add t "heap.live_words" (float_of_int (Gc.stat ()).Gc.live_words);
  add t "heap.samples" 1.

type pass = {
  wall_s : float;  (** host seconds of the pass as a caller waits for it *)
  unit_s : float list;  (** host seconds per unit, in unit order *)
  vectors : (string * string) list;
      (** unit label and digest of its count vector, in unit order *)
  problems : string list;  (** failed checks, one line each *)
  sums : sums;
}

(* Units a pass attempted; a unit that raised still has a vector entry. *)
let attempted p = List.length p.vectors

(* Units that failed: the distinct labels named by a problem line. *)
let failed p =
  List.length
    (List.sort_uniq compare
       (List.map (fun l -> List.hd (String.split_on_char ':' l)) p.problems))

(* [guard label f] runs one unit, turning an exception into a problem
   line so the pass goes on. *)
let guard label f =
  match f () with
  | v -> Ok v
  | exception e -> Error (Printf.sprintf "%s: raised %s" label (Printexc.to_string e))

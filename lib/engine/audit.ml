(* Opt-in invariant checking: structural conservation laws checked at
   per-packet checkpoints (link counters, queue occupancy, monotone event
   times, FIFO order at equal timestamps).

   Compiled in unconditionally but gated on one mutable bool read, so the
   cost when off is a single load-and-branch per checkpoint — no
   closures, no allocation.  Checks themselves never mutate simulation
   state, schedule events or draw random numbers, so enabling them
   cannot perturb results: a run with auditing on is byte-identical to
   the same run with auditing off (the fuzzer and test/cli's audited
   fig7 pin assert this).

   The switch is a plain (non-atomic) bool: it is set before a run
   starts and only read afterwards, including by pool worker domains
   that are spawned after the write. *)

let invariants = ref false

exception Violation of string

(* Cumulative count of violations raised, for harnesses that catch
   [Violation] and keep going (the fuzzer).  Atomic: worker domains
   running audited simulations may fail concurrently. *)
let violations = Atomic.make 0

let violation_count () = Atomic.get violations
let reset_violations () = Atomic.set violations 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Atomic.incr violations;
      raise (Violation msg))
    fmt

let[@inline] invariants_on () = !invariants
let disable_all () = invariants := false

(* "off"/"0"/"" → nothing; "1"/"on"/"all" → every check; otherwise a
   comma-separated list of family names.  Unknown tokens warn rather
   than raise: a typo in an env var must not abort a run. *)
let apply_spec spec =
  match String.lowercase_ascii (String.trim spec) with
  | "" | "0" | "off" | "none" -> disable_all ()
  | "1" | "on" | "all" -> invariants := true
  | s ->
    String.split_on_char ',' s
    |> List.iter (fun tok ->
           match String.trim tok with
           | "invariants" -> invariants := true
           | "" -> ()
           | tok ->
             Printf.eprintf
               "slowcc: ignoring unknown SLOWCC_AUDIT token %S \
                (expected off|all|invariants)\n%!"
               tok)

let () =
  match Sys.getenv_opt "SLOWCC_AUDIT" with
  | Some spec -> apply_spec spec
  | None -> ()

let with_flags ~invariants:on (f : unit -> 'a) : 'a =
  let saved = !invariants in
  invariants := on;
  Fun.protect ~finally:(fun () -> invariants := saved) f

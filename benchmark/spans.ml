(* Host clock and the in-memory span recorder of traced runs.

   Spans are recorded from the benchmark's own code around calls into
   the library: workload -> pass -> unit -> build/run for the simulated
   workloads, and claim/run_cached/finish/run_to_dir (plus the direct
   store/lookup/digest probes) for the sweeps.  They stay in memory and
   are written once, when the benchmark ends.  With recording off,
   [with_span] is a plain call. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Seconds elapsed since [t0] (a [now_ns] reading). *)
let since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [timed f] is [f ()] and its host seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  start : int;
  mutable stop : int;
  mutable attrs : (string * float) list;
}

let recording = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 1

let with_span name f =
  if not !recording then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> 0 in
    let s =
      { id = !next_id; parent; name; start = now_ns (); stop = 0; attrs = [] }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now_ns ();
        open_spans := List.tl !open_spans;
        recorded := s :: !recorded)
      f
  end

(* Attach a number to the innermost open span (no-op when not recording). *)
let attr key v =
  match !open_spans with
  | s :: _ when !recording -> s.attrs <- (key, v) :: s.attrs
  | _ -> ()

(* The spans closed since the last call, in closing order. *)
let drain () =
  let spans = List.rev !recorded in
  recorded := [];
  spans

(* Self time per span name, in order of first appearance: a span's
   duration minus the part its children cover. *)
let self_times spans =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop - s.start in
      Hashtbl.replace child_ns s.parent
        (d + Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0))
    spans;
  let order = ref [] and totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.stop - s.start
        - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0
      in
      match Hashtbl.find_opt totals s.name with
      | Some (n, ns) -> Hashtbl.replace totals s.name (n + 1, ns + self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace totals s.name (1, self))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

(* One JSON object per span, ids in creation order; times in ns relative
   to the first span. *)
let write_jsonl path spans =
  let spans = List.sort (fun a b -> compare a.id b.id) spans in
  let origin = match spans with s :: _ -> s.start | [] -> 0 in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          let attrs = List.rev_map (fun (k, v) -> (k, Engine.Json.Float v)) s.attrs in
          Engine.Json.to_channel ~minify:true oc
            (Engine.Json.Obj
               ([
                  ("id", Engine.Json.Int s.id);
                  ("parent", Engine.Json.Int s.parent);
                  ("name", Engine.Json.String s.name);
                  ("start_ns", Engine.Json.Int (s.start - origin));
                  ("dur_ns", Engine.Json.Int (s.stop - s.start));
                ]
               @ attrs)))
        spans)

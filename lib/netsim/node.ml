(* Flow ids [first .. last] go to [handler].  Bounds are inclusive so a
   range may end at [max_int]. *)
type range = { first : int; last : int; handler : Packet.t -> unit }

let no_range = { first = 0; last = -1; handler = ignore }

type t = {
  id : int;
  mutable routes : Link.t option array;
      (* indexed by destination node id; [None] or past the end = default *)
  mutable default_route : Link.t option;
  mutable ranges : range array;
      (* the first [used] are attached: disjoint, sorted by [first], so
         an n-slot engine costs one entry, not n *)
  mutable used : int;
  mutable discarded : int;
  mutable discard_hooks : (Packet.t -> unit) list;
}

let create ~id =
  {
    id;
    routes = [||];
    default_route = None;
    ranges = [||];
    used = 0;
    discarded = 0;
    discard_hooks = [];
  }

let id t = t.id

let add_route t ~dst link =
  if dst < 0 then invalid_arg "Node.add_route: negative dst";
  let len = Array.length t.routes in
  if dst >= len then begin
    let a = Array.make (max (dst + 1) (2 * len)) None in
    Array.blit t.routes 0 a 0 len;
    t.routes <- a
  end;
  t.routes.(dst) <- Some link

let set_default_route t link = t.default_route <- Some link

(* Number of ranges whose first id is <= [flow]: the range that may hold
   [flow] is the one just before that position. *)
let upper_bound t flow =
  let lo = ref 0 and hi = ref t.used in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Array.unsafe_get t.ranges mid).first <= flow then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Index of the range holding [flow], or -1. *)
let[@inline] find t flow =
  let r = upper_bound t flow - 1 in
  if r >= 0 && flow <= (Array.unsafe_get t.ranges r).last then r else -1

let insert t r range =
  if t.used = Array.length t.ranges then begin
    let a = Array.make (max 4 (2 * t.used)) no_range in
    Array.blit t.ranges 0 a 0 t.used;
    t.ranges <- a
  end;
  Array.blit t.ranges r t.ranges (r + 1) (t.used - r);
  t.ranges.(r) <- range;
  t.used <- t.used + 1

let remove t r =
  t.used <- t.used - 1;
  Array.blit t.ranges (r + 1) t.ranges r (t.used - r);
  t.ranges.(t.used) <- no_range

let attach t ?(count = 1) ~flow handler =
  if count < 1 then invalid_arg "Node.attach: count >= 1 required";
  if flow > max_int - (count - 1) then
    invalid_arg "Node.attach: flow id range overflows";
  let last = flow + (count - 1) in
  (* Ranges are disjoint and sorted, so only the last one starting at or
     below [last] can overlap [flow .. last]. *)
  let r = upper_bound t last in
  if r > 0 && t.ranges.(r - 1).last >= flow then begin
    let old = t.ranges.(r - 1) in
    if old.first = flow && old.last = last then
      t.ranges.(r - 1) <- { old with handler }
    else
      invalid_arg
        (Printf.sprintf "Node.attach: ids %d..%d partly overlap %d..%d" flow
           last old.first old.last)
  end
  else insert t r { first = flow; last; handler }

(* Detaching one id of a wider range splits it around the id. *)
let detach t ~flow =
  let r = find t flow in
  if r >= 0 then begin
    let rg = t.ranges.(r) in
    if rg.first = rg.last then remove t r
    else if flow = rg.first then t.ranges.(r) <- { rg with first = flow + 1 }
    else if flow = rg.last then t.ranges.(r) <- { rg with last = flow - 1 }
    else begin
      t.ranges.(r) <- { rg with last = flow - 1 };
      insert t (r + 1) { rg with first = flow + 1 }
    end
  end

let on_discard t hook = t.discard_hooks <- hook :: t.discard_hooks

let rec run_hooks hooks pkt =
  match hooks with
  | [] -> ()
  | h :: rest ->
    h pkt;
    run_hooks rest pkt

let discard t pkt =
  t.discarded <- t.discarded + 1;
  run_hooks t.discard_hooks pkt

let forward_default t pkt =
  match t.default_route with
  | Some l -> Link.send l pkt
  | None -> discard t pkt

let receive t (pkt : Packet.t) =
  let dst = pkt.Packet.dst in
  if dst = t.id then begin
    let r = find t pkt.Packet.flow in
    if r >= 0 then (Array.unsafe_get t.ranges r).handler pkt
    else discard t pkt
  end
  else if dst >= 0 && dst < Array.length t.routes then begin
    match Array.unsafe_get t.routes dst with
    | Some l -> Link.send l pkt
    | None -> forward_default t pkt
  end
  else forward_default t pkt

let inject = receive
let discarded t = t.discarded

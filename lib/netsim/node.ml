(* Physical-equality sentinel marking an empty dense slot; never called. *)
let no_agent : Packet.t -> unit = fun _ -> ()

(* Flow ids at or above this never enter the dense table on their own;
   [reserve] may still grow the table past it when a caller announces a
   larger id range up front. *)
let dense_limit = 1 lsl 20

type t = {
  id : int;
  routes : (int, Link.t) Hashtbl.t;
  mutable default_route : Link.t option;
  mutable agents_dense : (Packet.t -> unit) array;
      (* dense dispatch for small non-negative flow ids: delivery is a
         bounds-checked load instead of a hash probe *)
  agents : (int, Packet.t -> unit) Hashtbl.t;
      (* sparse fallback for negative or huge flow ids.  Invariant: a
         flow id inside the dense table's range lives only there, so the
         receive path needs a single range test. *)
  mutable discarded : int;
  mutable discard_hooks : (Packet.t -> unit) list;
}

let create ~id =
  {
    id;
    routes = Hashtbl.create 16;
    default_route = None;
    agents_dense = [||];
    agents = Hashtbl.create 16;
    discarded = 0;
    discard_hooks = [];
  }

let id t = t.id
let add_route t ~dst link = Hashtbl.replace t.routes dst link
let set_default_route t link = t.default_route <- Some link

(* Sparse entries the grown range now covers move into it, keeping the
   invariant above.  Non-negative sparse ids are all >= [dense_limit],
   so only [reserve] growing the table past it can cover one. *)
let grow_dense t want =
  let cur = Array.length t.agents_dense in
  let target = max want (max 16 (2 * cur)) in
  let a = Array.make target no_agent in
  Array.blit t.agents_dense 0 a 0 cur;
  if target > dense_limit then
    Hashtbl.filter_map_inplace
      (fun flow handler ->
        if flow >= cur && flow < target then begin
          a.(flow) <- handler;
          None
        end
        else Some handler)
      t.agents;
  t.agents_dense <- a

let reserve t ~flows = if flows > Array.length t.agents_dense then grow_dense t flows

let[@inline] dense_id t flow =
  flow >= 0 && (flow < Array.length t.agents_dense || flow < dense_limit)

let attach t ~flow handler =
  if dense_id t flow then begin
    if flow >= Array.length t.agents_dense then grow_dense t (flow + 1);
    t.agents_dense.(flow) <- handler
  end
  else Hashtbl.replace t.agents flow handler

let detach t ~flow =
  if flow >= 0 && flow < Array.length t.agents_dense then
    t.agents_dense.(flow) <- no_agent
  else Hashtbl.remove t.agents flow

let on_discard t hook = t.discard_hooks <- hook :: t.discard_hooks

let rec run_hooks hooks pkt =
  match hooks with
  | [] -> ()
  | h :: rest ->
    h pkt;
    run_hooks rest pkt

(* The node is the last owner of a packet it discards; hooks observe it
   first, then pooled shells go back to the freelist (no-op otherwise). *)
let discard t pkt =
  t.discarded <- t.discarded + 1;
  run_hooks t.discard_hooks pkt;
  Packet.release pkt

(* Exception-style lookups on the sparse path: [Hashtbl.find_opt]
   allocates a [Some] per delivery, and this runs once per packet per
   hop.  The dense path is just a load and a physical-equality test. *)
let receive t (pkt : Packet.t) =
  if pkt.Packet.dst = t.id then begin
    let flow = pkt.Packet.flow in
    let dense = t.agents_dense in
    if flow >= 0 && flow < Array.length dense then begin
      let handler = Array.unsafe_get dense flow in
      if handler != no_agent then handler pkt else discard t pkt
    end
    else begin
      match Hashtbl.find t.agents flow with
      | handler -> handler pkt
      | exception Not_found -> discard t pkt
    end
  end
  else begin
    match Hashtbl.find t.routes pkt.Packet.dst with
    | l -> Link.send l pkt
    | exception Not_found -> (
      match t.default_route with
      | Some l -> Link.send l pkt
      | None -> discard t pkt)
  end

let inject = receive
let discarded t = t.discarded

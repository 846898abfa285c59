type t = {
  k : int;
  mutable closed : float list;  (* most recent first, length <= k *)
  mutable n_events : int;
  mutable event_start_time : float;  (* of the current (latest) loss event *)
  mutable event_start_seq : int;
  mutable highest_seq : int;
}

let create ~k =
  if k < 1 then invalid_arg "Loss_history.create: k >= 1 required";
  {
    k;
    closed = [];
    n_events = 0;
    event_start_time = neg_infinity;
    event_start_seq = 0;
    highest_seq = -1;
  }

let note_progress t ~seq = if seq > t.highest_seq then t.highest_seq <- seq

let record_loss t ~seq ~now ~rtt =
  note_progress t ~seq;
  if now > t.event_start_time +. rtt then begin
    (* New loss event: close the running interval. *)
    if t.n_events > 0 then begin
      let interval = float_of_int (max 1 (seq - t.event_start_seq)) in
      t.closed <- interval :: t.closed;
      if List.length t.closed > t.k then
        t.closed <- List.filteri (fun i _ -> i < t.k) t.closed
    end;
    t.n_events <- t.n_events + 1;
    t.event_start_time <- now;
    t.event_start_seq <- seq;
    true
  end
  else false

let seed_first_interval t interval =
  if t.n_events = 0 then
    invalid_arg "Loss_history.seed_first_interval: no loss event yet";
  if t.closed = [] then t.closed <- [ Float.max 1. interval ]
  else t.closed <- Float.max 1. interval :: List.tl t.closed

(* Weight of the i-th most recent interval among k: 1 for the newer half,
   linearly decaying for the older half (RFC 3448 weights for k = 8:
   1,1,1,1,0.8,0.6,0.4,0.2). *)
let weight ~k i =
  let half = k / 2 in
  if i < half || k = 1 then 1.
  else float_of_int (k - i) /. float_of_int (k - half + 1)

let weighted_average ~k intervals =
  let rec go i num den = function
    | [] -> if den = 0. then 0. else num /. den
    | x :: rest ->
      if i >= k then if den = 0. then 0. else num /. den
      else begin
        let w = weight ~k i in
        go (i + 1) (num +. (w *. x)) (den +. w) rest
      end
  in
  go 0 0. 0. intervals

let open_interval t =
  if t.n_events = 0 then 0.
  else float_of_int (max 0 (t.highest_seq - t.event_start_seq))

let loss_event_rate t =
  if t.n_events = 0 || t.closed = [] then 0.
  else begin
    let avg_closed = weighted_average ~k:t.k t.closed in
    let avg_with_open =
      weighted_average ~k:t.k (open_interval t :: t.closed)
    in
    let avg = Float.max avg_closed avg_with_open in
    if avg <= 0. then 0. else 1. /. avg
  end

let num_loss_events t = t.n_events
let intervals t = t.closed

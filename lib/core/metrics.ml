type stabilization = {
  time_seconds : float;
  time_rtts : float;
  cost : float;
  avg_loss : float;
  steady_loss : float;
}

let stabilization ~loss_series ~t_event ~steady_loss ~rtt =
  let threshold = Float.max (1.5 *. steady_loss) 1e-4 in
  let samples =
    Engine.Timeseries.between loss_series ~lo:t_event ~hi:Float.infinity
  in
  match samples with
  | [] -> None
  | _ ->
    (* The loss rate must first exceed the threshold (there was a transient
       at all), then we find the first sample back at/below it. *)
    let rec find_spike = function
      | [] -> None
      | (_, v) :: rest -> if v > threshold then Some rest else find_spike rest
    in
    (match find_spike samples with
    | None -> None
    | Some after_spike ->
      let rec find_settle = function
        | [] -> None
        | (time, v) :: rest ->
          if v <= threshold then Some time else find_settle rest
      in
      let t_settle =
        match find_settle after_spike with
        | Some time -> time
        | None ->
          (* Never settled within the simulation: charge the whole tail. *)
          (match Engine.Timeseries.last loss_series with
          | Some (time, _) -> time
          | None -> t_event)
      in
      let time_seconds = t_settle -. t_event in
      let time_rtts = time_seconds /. rtt in
      let avg_loss =
        match
          Engine.Timeseries.mean_between loss_series ~lo:t_event ~hi:t_settle
        with
        | Some m -> m
        | None -> 0.
      in
      Some
        {
          time_seconds;
          time_rtts;
          cost = time_rtts *. avg_loss;
          avg_loss;
          steady_loss;
        })

let fair_convergence ~rate1 ~rate2 ~t_start ~delta =
  let l1 = Engine.Timeseries.between rate1 ~lo:t_start ~hi:Float.infinity in
  let l2 = Engine.Timeseries.between rate2 ~lo:t_start ~hi:Float.infinity in
  let fair_share_floor = (1. -. delta) /. 2. in
  let rec scan l1 l2 =
    match (l1, l2) with
    | (t1, x1) :: r1, (_, x2) :: r2 ->
      let total = x1 +. x2 in
      if total > 0. && Float.min x1 x2 /. total >= fair_share_floor then
        Some (t1 -. t_start)
      else scan r1 r2
    | _, [] | [], _ -> None
  in
  scan l1 l2

let f_k ~bytes_at_event ~bytes_after ~k ~rtt ~bandwidth =
  if k <= 0 || rtt <= 0. || bandwidth <= 0. then invalid_arg "Metrics.f_k";
  let dt = float_of_int k *. rtt in
  (bytes_after -. bytes_at_event) *. 8. /. (bandwidth *. dt)

let smoothness ?(floor = 1.) series =
  Engine.Timeseries.max_consecutive_ratio ~floor series

let mean_between series ~lo ~hi =
  match Engine.Timeseries.mean_between series ~lo ~hi with
  | Some m -> m
  | None -> 0.

module Json = Engine.Json

let schema = "slowcc-workqueue/1"

type job = { index : int; name : string }

type t = {
  dir : string;
  fingerprint : string;
  quick : bool;
  jobs : job list; (* submission order *)
}

let dir t = t.dir
let fingerprint t = t.fingerprint
let quick t = t.quick
let jobs t = t.jobs
let queue_file d = Filename.concat d "queue.json"
let todo_dir t = Filename.concat t.dir "todo"
let claims_dir t = Filename.concat t.dir "claims"
let done_dir t = Filename.concat t.dir "done"
let tmp_dir t = Filename.concat t.dir "tmp"

(* Atomic publish: exclusive temp under the queue's own tmp/ then rename.
   Both marker writes (done) and queue.json go through here so no reader
   can observe a torn file. *)
let write_file_atomic t path contents =
  Table.write_file_atomic ~temp_dir:(tmp_dir t) path contents

let list_dir d = try Sys.readdir d with Sys_error _ -> [||]

(* ------------------------------------------------------------------ *)
(* Naming                                                              *)
(* ------------------------------------------------------------------ *)

(* The claimable file's base name is "NNN-<unit>" where NNN is the job's
   submission index: a sorted directory scan claims jobs in submission
   order, so workers need no shared state to agree on execution order.
   The base name survives the whole todo -> claims -> done lifecycle, so
   requeueing and completion always land back on the same identity. *)
let base_name j = Printf.sprintf "%03d-%s" j.index j.name

let claim_marker = ".claim."

(* claims/<base>.claim.<worker>.<expiry-ms>: everything recovery needs is
   in the filename — readable from a single readdir, no content parsing,
   no mtime trust across machines (the worker stamps its own clock, which
   is the clock peers on the same filesystem compare against). *)
let claim_name ~base ~worker ~expiry_ms =
  Printf.sprintf "%s%s%s.%d" base claim_marker worker expiry_ms

let parse_claim_name s =
  match String.index_opt s '.' with
  | None -> None
  | Some _ -> (
    (* base is everything before ".claim."; worker and expiry follow. *)
    let marker_len = String.length claim_marker in
    let rec find i =
      if i + marker_len > String.length s then None
      else if String.sub s i marker_len = claim_marker then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i -> (
      let base = String.sub s 0 i in
      let rest = String.sub s (i + marker_len) (String.length s - i - marker_len) in
      match String.rindex_opt rest '.' with
      | None -> None
      | Some j -> (
        let worker = String.sub rest 0 j in
        match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
        | Some expiry_ms -> Some (base, worker, expiry_ms)
        | None -> None)))

let sanitize_worker s =
  let s =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c | _ -> '-')
      s
  in
  if s = "" then "worker" else s

(* Saturates at [max_int]: past about 4.6e15 s [int_of_float] leaves the
   int range, and a wrapped expiry would read as already past. *)
let ms_of_s s =
  let ms = Float.round (s *. 1000.) in
  if ms >= Float.of_int max_int then max_int else int_of_float ms

(* ------------------------------------------------------------------ *)
(* Seeding and loading                                                 *)
(* ------------------------------------------------------------------ *)

let job_json j =
  Json.Obj
    [
      ("index", Json.Int j.index);
      ("unit", Json.String j.name);
    ]

let job_of_json doc =
  match (Json.member "index" doc, Json.member "unit" doc) with
  | Some (Json.Int index), Some (Json.String name) -> Ok { index; name }
  | _ -> Error "malformed job record"

let seed ~dir ~fingerprint ~quick ~jobs =
  if Sys.file_exists (queue_file dir) then
    raise (Sys_error (dir ^ ": already contains a work queue"));
  let jobs = List.mapi (fun index (name, _estimate) -> { index; name }) jobs in
  let t = { dir; fingerprint; quick; jobs } in
  List.iter Table.ensure_dir [ dir; todo_dir t; claims_dir t; done_dir t; tmp_dir t ];
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("fingerprint", Json.String fingerprint);
        ("quick", Json.Bool quick);
        ("jobs", Json.List (List.map job_json jobs));
      ]
  in
  write_file_atomic t (queue_file dir) (Json.to_string doc ^ "\n");
  List.iter
    (fun j ->
      write_file_atomic t
        (Filename.concat (todo_dir t) (base_name j))
        (Json.to_string ~minify:true (job_json j) ^ "\n"))
    jobs;
  t

let load ~dir =
  let ( let* ) = Result.bind in
  match Table.read_file (queue_file dir) with
  | exception Sys_error e -> Error e
  | raw ->
    let* doc = Json.of_string raw in
    let* () =
      match Json.member "schema" doc with
      | Some (Json.String s) when s = schema -> Ok ()
      | _ -> Error "schema tag missing or unknown"
    in
    let* fingerprint =
      match Json.member "fingerprint" doc with
      | Some (Json.String f) -> Ok f
      | _ -> Error "fingerprint missing"
    in
    let* quick =
      match Json.member "quick" doc with
      | Some (Json.Bool q) -> Ok q
      | _ -> Error "quick flag missing"
    in
    let* jobs =
      match Json.member "jobs" doc with
      | Some (Json.List specs) ->
        List.fold_left
          (fun acc spec ->
            let* acc = acc in
            let* j = job_of_json spec in
            Ok (j :: acc))
          (Ok []) specs
        |> Result.map List.rev
      | _ -> Error "job list missing"
    in
    Ok { dir; fingerprint; quick; jobs }

(* ------------------------------------------------------------------ *)
(* Claim / finish / requeue                                            *)
(* ------------------------------------------------------------------ *)

type claimed = { job : job; base : string; claim_path : string }

let claimed_job c = c.job

(* Atomic-rename claim: exactly one process wins the rename of a given
   todo file; losers see [Sys_error] and move to the next candidate.  The
   job spec travels inside the file, so the winner re-reads it from its
   new home — no shared state beyond the filesystem. *)
let try_claim t ~worker ~now ~lease_s =
  let names = list_dir (todo_dir t) in
  Array.sort String.compare names;
  let expiry_ms = ms_of_s (now +. lease_s) in
  let rec go i =
    if i >= Array.length names then None
    else
      let base = names.(i) in
      let claim_path =
        Filename.concat (claims_dir t) (claim_name ~base ~worker ~expiry_ms)
      in
      match Sys.rename (Filename.concat (todo_dir t) base) claim_path with
      | exception Sys_error _ -> go (i + 1) (* lost the race; next *)
      | () -> (
        match
          Result.bind (Json.of_string (Table.read_file claim_path)) job_of_json
        with
        | Ok job -> Some { job; base; claim_path }
        | Error _ | (exception Sys_error _) ->
          (* Unreadable claim (should not happen: seeded atomically).
             Treat as consumed so the queue cannot wedge on it. *)
          go (i + 1))
  in
  go 0

let finish t c ~wall_s ~result =
  let fields =
    [
      ("unit", Json.String c.job.name);
      ("index", Json.Int c.job.index);
      ("wall_s", Json.Float wall_s);
      ("ok", Json.Bool (Result.is_ok result));
    ]
    @ (match result with
      | Ok () -> []
      | Error msg -> [ ("error", Json.String msg) ])
  in
  write_file_atomic t
    (Filename.concat (done_dir t) c.base)
    (Json.to_string ~minify:true (Json.Obj fields) ^ "\n");
  (* The claim may already be gone: an expired lease requeued it while we
     were (slowly) finishing.  Harmless — the done marker above is what
     counts, and a re-execution hits the result cache. *)
  try Sys.remove c.claim_path with Sys_error _ -> ()

let requeue_expired t ~now =
  let now_ms = ms_of_s now in
  let moved = ref 0 in
  Array.iter
    (fun name ->
      match parse_claim_name name with
      | Some (base, _worker, expiry_ms) when expiry_ms < now_ms -> (
        match
          Sys.rename
            (Filename.concat (claims_dir t) name)
            (Filename.concat (todo_dir t) base)
        with
        | () -> incr moved
        | exception Sys_error _ -> () (* someone else got there first *))
      | Some _ | None -> ())
    (list_dir (claims_dir t));
  !moved

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

type status = { todo : int; claimed : int; complete : int; total : int }

let status t =
  {
    todo = Array.length (list_dir (todo_dir t));
    claimed = Array.length (list_dir (claims_dir t));
    complete = Array.length (list_dir (done_dir t));
    total = List.length t.jobs;
  }

let drained t =
  let s = status t in
  s.todo = 0 && s.claimed = 0

let failed_units t =
  Array.to_list (list_dir (done_dir t))
  |> List.sort String.compare
  |> List.filter_map (fun name ->
         let path = Filename.concat (done_dir t) name in
         match Json.of_string (Table.read_file path) with
         | Ok doc -> (
           match (Json.member "ok" doc, Json.member "unit" doc) with
           | Some (Json.Bool false), Some (Json.String u) -> Some u
           | _ -> None)
         | Error _ | (exception Sys_error _) -> None)

(* ------------------------------------------------------------------ *)
(* Worker loop                                                         *)
(* ------------------------------------------------------------------ *)

let worker_loop t ~worker ~now ~sleep ~lease_s ~poll_s ~run =
  let worker = sanitize_worker worker in
  let completed = ref 0 in
  let rec loop () =
    match try_claim t ~worker ~now:(now ()) ~lease_s with
    | Some c ->
      let t0 = now () in
      let result =
        match run c.job with
        | () -> Ok ()
        | exception e -> Error (Printexc.to_string e)
      in
      finish t c ~wall_s:(now () -. t0) ~result;
      incr completed;
      loop ()
    | None ->
      (* Nothing claimable.  A crashed peer's claim may be revivable —
         requeue expired leases and retry; otherwise nap until the
         outstanding claims resolve (their owners finish, or their
         leases expire into our hands). *)
      if requeue_expired t ~now:(now ()) > 0 then loop ()
      else if drained t then !completed
      else begin
        sleep poll_s;
        loop ()
      end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Cleanup                                                             *)
(* ------------------------------------------------------------------ *)

let delete t =
  let remove_all d =
    Array.iter
      (fun name -> try Sys.remove (Filename.concat d name) with Sys_error _ -> ())
      (list_dir d);
    try Sys.rmdir d with Sys_error _ -> ()
  in
  List.iter remove_all [ todo_dir t; claims_dir t; done_dir t; tmp_dir t ];
  (try Sys.remove (queue_file t.dir) with Sys_error _ -> ());
  try Sys.rmdir t.dir with Sys_error _ -> ()

type config = {
  window : float;
  min_prefixes : int;
  table_fraction : float;
  quiet_gap : float;
}

let default_config =
  { window = 60.; min_prefixes = 100; table_fraction = 0.5; quiet_gap = 30. }

type stats = {
  pushed : int;
  passed : int;
  dropped : int;
  buffered : int;
  bursts : (Update.session_id * float * float) list;
}

type session_state = {
  id : Update.session_id;
  table : unit Prefix.Table.t;          (* prefixes ever seen on the session *)
  mutable table_floor : int;            (* preloaded table size *)
  buffer : Update.t Queue.t;            (* recent updates, undecided *)
  window_prefixes : int Prefix.Table.t; (* distinct prefixes in buffer *)
  mutable stale : int;                  (* arrival tokens of dropped updates *)
  mutable in_burst : bool;
  mutable burst_start : float;
  mutable last_time : float;
}

type t = {
  config : config;
  emit : Update.t -> unit;
  sessions : (Update.session_id, session_state) Hashtbl.t;
  arrivals : session_state Queue.t;
      (* one token per enqueued update, in push order, naming its session;
         a session's oldest [stale] tokens belong to dropped updates, the
         rest to its buffer in order *)
  mutable pushed : int;
  mutable passed : int;
  mutable dropped : int;
  mutable bursts : (Update.session_id * float * float) list;
}

let create ?(config = default_config) ~emit () =
  { config; emit; sessions = Hashtbl.create 128; arrivals = Queue.create ();
    pushed = 0; passed = 0; dropped = 0; bursts = [] }

let state t id =
  match Hashtbl.find_opt t.sessions id with
  | Some s -> s
  | None ->
      let s =
        { id; table = Prefix.Table.create 1024; table_floor = 0;
          buffer = Queue.create (); window_prefixes = Prefix.Table.create 64;
          stale = 0; in_burst = false; burst_start = 0.;
          last_time = neg_infinity }
      in
      Hashtbl.replace t.sessions id s;
      s

let preload_table t id n =
  let s = state t id in
  s.table_floor <- max s.table_floor n

let table_size s = max s.table_floor (Prefix.Table.length s.table)

let window_remove s u =
  let p = Update.prefix u in
  match Prefix.Table.find_opt s.window_prefixes p with
  | Some 1 -> Prefix.Table.remove s.window_prefixes p
  | Some n -> Prefix.Table.replace s.window_prefixes p (n - 1)
  | None -> ()

let window_add s u =
  let p = Update.prefix u in
  let n = Option.value ~default:0 (Prefix.Table.find_opt s.window_prefixes p) in
  Prefix.Table.replace s.window_prefixes p (n + 1)

let enqueue t s u =
  Queue.push u s.buffer;
  Queue.push s t.arrivals;
  window_add s u

(* The one emission path: emit every buffered update older than [horizon]
   — none of them can join a burst any more, so they are clean. Input
   time is globally non-decreasing, so the due updates are a prefix of
   the arrival queue; a stable sort by (time, session) then yields the
   global (time, session, within-session position) order. *)
let release t horizon =
  let rec take due =
    match Queue.peek_opt t.arrivals with
    | Some s when s.stale > 0 ->
        ignore (Queue.pop t.arrivals);
        s.stale <- s.stale - 1;
        take due
    | Some s when (Queue.peek s.buffer).Update.time < horizon ->
        ignore (Queue.pop t.arrivals);
        let u = Queue.pop s.buffer in
        window_remove s u;
        take (u :: due)
    | Some _ | None -> due
  in
  match take [] with
  | [] -> ()
  | due ->
      List.rev due
      |> List.stable_sort (fun (a : Update.t) (b : Update.t) ->
          match Float.compare a.Update.time b.Update.time with
          | 0 -> Update.session_compare a.Update.session b.Update.session
          | c -> c)
      |> List.iter (fun u ->
          t.emit u;
          t.passed <- t.passed + 1;
          Metrics.incr Manifest.session_reset_passed)

let advance t now = release t (now -. t.config.window)

let burst_threshold t s =
  max t.config.min_prefixes
    (int_of_float (t.config.table_fraction *. float_of_int (table_size s)))

(* The dropped updates' arrival tokens stay queued; [release] skips them. *)
let drop_buffer t s =
  let n = Queue.length s.buffer in
  t.dropped <- t.dropped + n;
  Metrics.add Manifest.session_reset_dropped n;
  s.stale <- s.stale + n;
  Queue.clear s.buffer;
  Prefix.Table.reset s.window_prefixes

let push t u =
  t.pushed <- t.pushed + 1;
  Metrics.incr Manifest.session_reset_pushed;
  let now = u.Update.time in
  advance t now;
  let s = state t u.Update.session in
  Prefix.Table.replace s.table (Update.prefix u) ();
  if s.in_burst then begin
    if now -. s.last_time > t.config.quiet_gap then begin
      (* Transfer over; this update is the first normal one after it. *)
      t.bursts <- (s.id, s.burst_start, s.last_time) :: t.bursts;
      Metrics.incr Manifest.session_reset_bursts;
      s.in_burst <- false;
      enqueue t s u
    end else begin
      t.dropped <- t.dropped + 1;
      Metrics.incr Manifest.session_reset_dropped
    end
  end else begin
    enqueue t s u;
    if Prefix.Table.length s.window_prefixes >= burst_threshold t s then begin
      (* The whole window is a table transfer. *)
      s.in_burst <- true;
      s.burst_start <- (Queue.peek s.buffer).Update.time;
      drop_buffer t s
    end
  end;
  s.last_time <- now

(* Close the transfers still running at end of stream, in session order,
   then emit everything still buffered. *)
let flush t =
  Hashtbl.fold (fun _ s acc -> if s.in_burst then s :: acc else acc)
    t.sessions []
  |> List.sort (fun a b -> Update.session_compare a.id b.id)
  |> List.iter (fun s ->
      t.bursts <- (s.id, s.burst_start, s.last_time) :: t.bursts;
      Metrics.incr Manifest.session_reset_bursts;
      s.in_burst <- false);
  release t infinity

let stats t =
  { pushed = t.pushed;
    passed = t.passed;
    dropped = t.dropped;
    buffered =
      Hashtbl.fold (fun _ s acc -> acc + Queue.length s.buffer) t.sessions 0;
    bursts = t.bursts }

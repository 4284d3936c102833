type violation = { invariant : string; message : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %s" v.invariant v.message

(* Storing every violation of a badly broken stream would be as long as
   the stream itself; keep the first [max_recorded] and count the rest. *)
let max_recorded = 100

type stream_key = Update.session_id * Prefix.t

type t = {
  duration : float;
  require_global_order : bool;
  last_by_session : (Update.session_id, float) Hashtbl.t;
  mutable last_global : float;
  announced : (stream_key, unit) Hashtbl.t;
  suspects : (stream_key, float) Hashtbl.t;
      (* keys whose first event was a withdraw; resolved against the
         time-0 tables in {!finalize} *)
  mutable observed : int;
  mutable recorded : violation list;  (* newest first *)
  mutable n_violations : int;
}

let create ?(duration = infinity) ?(require_global_order = true) () =
  { duration;
    require_global_order;
    last_by_session = Hashtbl.create 64;
    last_global = neg_infinity;
    announced = Hashtbl.create 4096;
    suspects = Hashtbl.create 64;
    observed = 0;
    recorded = [];
    n_violations = 0 }

let add t invariant message =
  t.n_violations <- t.n_violations + 1;
  if t.n_violations <= max_recorded then
    t.recorded <- { invariant; message } :: t.recorded

let observed t = t.observed

let observe t (u : Update.t) =
  t.observed <- t.observed + 1;
  let time = u.Update.time in
  let s = u.Update.session in
  if Float.is_nan time || time < 0. || time > t.duration then
    add t "horizon"
      (Format.asprintf "%a: update at t=%g outside [0, %g]"
         Update.pp_session s time t.duration);
  (match Hashtbl.find_opt t.last_by_session s with
   | Some last when time < last ->
       add t "session-monotonic"
         (Format.asprintf "%a: t=%g after t=%g on the same session"
            Update.pp_session s time last)
   | Some last -> Hashtbl.replace t.last_by_session s (Float.max last time)
   | None -> Hashtbl.replace t.last_by_session s time);
  if t.require_global_order && time < t.last_global then
    add t "global-monotonic"
      (Format.asprintf "%a: t=%g after another session already reached t=%g"
         Update.pp_session s time t.last_global);
  t.last_global <- Float.max t.last_global time;
  let key = (s, Update.prefix u) in
  match u.Update.kind with
  | Update.Announce _ -> Hashtbl.replace t.announced key ()
  | Update.Withdraw _ ->
      if not (Hashtbl.mem t.announced key) && not (Hashtbl.mem t.suspects key)
      then Hashtbl.replace t.suspects key time

let wrap t k = fun u -> observe t u; k u

let finalize ?initial t =
  let in_baseline (session, prefix) =
    match initial with
    | None -> false
    | Some init ->
        (match Update.Session_map.find_opt session init with
         | Some table -> Prefix.Map.mem prefix table
         | None -> false)
  in
  let late =
    Hashtbl.fold
      (fun key time acc ->
         if in_baseline key then acc else (key, time) :: acc)
      t.suspects []
    |> List.sort
         (fun ((sa, pa), ta) ((sb, pb), tb) ->
            match Float.compare ta tb with
            | 0 ->
                (match Update.session_compare sa sb with
                 | 0 -> Prefix.compare pa pb
                 | c -> c)
            | c -> c)
    |> List.map (fun ((s, p), time) ->
        { invariant = "withdraw-before-announce";
          message =
            Format.asprintf
              "%a %a: withdraw at t=%g with no prior announce or baseline"
              Update.pp_session s Prefix.pp p time })
  in
  let truncated =
    if t.n_violations <= max_recorded then []
    else
      [ { invariant = "truncated";
          message =
            Printf.sprintf "... and %d more stream violations not recorded"
              (t.n_violations - max_recorded) } ]
  in
  List.rev t.recorded @ truncated @ late

let eps = 1e-6

let check_measurement (m : Measurement.t) =
  let out = ref [] in
  let add invariant message = out := { invariant; message } :: !out in
  let dur = m.Measurement.duration in
  List.iter
    (fun (c : Measurement.cell) ->
       let name =
         Format.asprintf "%a %a"
           Update.pp_session c.Measurement.key.Measurement.session
           Prefix.pp c.Measurement.key.Measurement.prefix
       in
       if c.Measurement.baseline = None && c.Measurement.updates = 0 then
         add "phantom-cell" (name ^ ": cell with no baseline and no updates");
       if c.Measurement.path_changes > c.Measurement.updates then
         add "cell-accounting"
           (Printf.sprintf "%s: %d path changes out of %d updates" name
              c.Measurement.path_changes c.Measurement.updates);
       List.iter
         (fun (a, d) ->
            if d < -.eps || d > dur +. eps then
              add "residency-conservation"
                (Format.asprintf "%s: AS%a residency %g outside [0, %g]" name
                   Asn.pp a d dur))
         c.Measurement.residency;
       List.iter
         (fun (a, d) ->
            let cum =
              List.fold_left
                (fun acc (a', d') -> if Asn.equal a a' then acc +. d' else acc)
                0. c.Measurement.residency
            in
            if d > cum +. eps then
              add "residency-conservation"
                (Format.asprintf
                   "%s: AS%a contiguous run %g exceeds cumulative %g" name
                   Asn.pp a d cum))
         c.Measurement.contiguous)
    m.Measurement.cells;
  Prefix.Table.iter
    (fun p n ->
       if n < 0 || n > m.Measurement.n_sessions then
         add "visibility"
           (Format.asprintf "%a: visible on %d of %d sessions" Prefix.pp p n
              m.Measurement.n_sessions))
    m.Measurement.visibility;
  (match m.Measurement.filter_stats with
   | None -> ()
   | Some fs ->
       if
         fs.Session_reset.pushed
         <> fs.Session_reset.passed + fs.Session_reset.dropped
            + fs.Session_reset.buffered
       then
         add "filter-accounting"
           (Printf.sprintf "pushed %d <> passed %d + dropped %d + buffered %d"
              fs.Session_reset.pushed fs.Session_reset.passed
              fs.Session_reset.dropped fs.Session_reset.buffered);
       if fs.Session_reset.buffered <> 0 then
         add "filter-accounting"
           (Printf.sprintf "%d updates still buffered after flush"
              fs.Session_reset.buffered));
  List.rev !out

let run ?dynamics ?no_filter ?extra_updates scenario =
  let dcfg = Option.value ~default:Dynamics.default_config dynamics in
  let t = create ~duration:dcfg.Dynamics.duration () in
  let m =
    Measurement.run ~dynamics:dcfg ?no_filter ?extra_updates
      ~observe:(observe t) scenario
  in
  let violations =
    finalize ~initial:m.Measurement.initial t @ check_measurement m
  in
  (m, violations, observed t)

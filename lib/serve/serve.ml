module Config = struct
  type t = {
    window : float;
    bucket : float;
    threshold : float;
    slack : float;
    capacity : int;
    chunk : int;
    learning_period : float;
    monitored : (Prefix.t * Prefix.t) list;
  }

  let default =
    { window = 3600.;
      bucket = 60.;
      threshold = 300.;
      slack = 120.;
      capacity = 65536;
      chunk = 512;
      learning_period = 21600.;
      monitored = [] }

  let view t =
    { Serve_lint.window = t.window;
      bucket = t.bucket;
      threshold = t.threshold;
      slack = t.slack;
      capacity = t.capacity;
      chunk = t.chunk;
      monitored = t.monitored }

  let window_config t =
    { Window.window = t.window; bucket = t.bucket; threshold = t.threshold }

  let ingest_config t = { Ingest.capacity = t.capacity; slack = t.slack }
end

let evidence_depth = 4

(* A prefix's last [evidence_depth] updates: the next one goes to slot
   [seen mod evidence_depth], overwriting the oldest. *)
type ring = { slots : Update.t array; mutable seen : int }

let note_evidence rings (u : Update.t) =
  let p = Update.prefix u in
  match Prefix.Table.find rings p with
  | r ->
      r.slots.(r.seen mod evidence_depth) <- u;
      r.seen <- r.seen + 1
  | exception Not_found ->
      Prefix.Table.add rings p
        { slots = Array.make evidence_depth u; seen = 1 }

(* Newest first, built only when an alert asks. *)
let evidence rings p =
  match Prefix.Table.find rings p with
  | exception Not_found -> []
  | r ->
      List.init (min r.seen evidence_depth) (fun i ->
          r.slots.((r.seen - 1 - i) mod evidence_depth))

type t = {
  config : Config.t;
  exec : Pool.t;
  window : Window.t;
  ingest : Ingest.t;
  registry : Alert.registry;
  conformance : Conformance.t;
  evidence : ring Prefix.Table.t;
  sinks : Sink.t list;
  events_read : bool;               (* some sink reads events *)
  mutable pending : Event.t list;   (* newest first; [] unless [events_read] *)
  mutable n_pending : int;
  mutable alerts_log : Alert.t list; (* newest first *)
  mutable n_events : int;
  mutable drained : bool;
}

let create ?(config = Config.default) ?(duration = infinity)
    ?(watched = fun _ -> true) ?(sinks = []) ~exec () =
  (match Serve_lint.check (Config.view config) with
   | [] -> ()
   | d :: _ ->
       invalid_arg
         (Format.asprintf "Serve.create: invalid config: %a" Diag.pp d));
  let t =
    { config;
      exec;
      window = Window.create ~config:(Config.window_config config) ~watched ();
      ingest = Ingest.create ~config:(Config.ingest_config config) ();
      registry = Alert.registry ();
      conformance = Conformance.create ~duration ();
      evidence = Prefix.Table.create 1024;
      sinks;
      events_read = List.exists Sink.reads sinks;
      pending = [];
      n_pending = 0;
      alerts_log = [];
      n_events = 0;
      drained = false }
  in
  Alert.register t.registry
    (Alert.c1c ~learning_period:config.Config.learning_period
       ~evidence:(evidence t.evidence) ());
  t

let alerts t = List.rev t.alerts_log

(* With no sink reading events, an event is only counted. *)
let queue_events t evs =
  let n = List.length evs in
  if n > 0 then begin
    t.n_events <- t.n_events + n;
    Metrics.add Manifest.serve_events n;
    if t.events_read then begin
      t.pending <- List.rev_append evs t.pending;
      t.n_pending <- t.n_pending + n
    end
  end

let flush_events t =
  if t.n_pending > 0 then begin
    let events = Array.of_list (List.rev t.pending) in
    t.pending <- [];
    t.n_pending <- 0;
    (* Rendered only if a sink reads lines. Rendering is pure per event;
       chunk it over the pool. Submission order is preserved, so sinks
       see the stream in order and the output is byte-identical at any
       worker count. *)
    let lines =
      lazy
        (let rendered = Pool.map t.exec Event.to_json events in
         Array.mapi (fun i e -> (e, rendered.(i))) events)
    in
    List.iter (fun s -> Sink.emit s events lines) t.sinks
  end

let count_alert t (a : Alert.t) =
  t.alerts_log <- a :: t.alerts_log;
  Metrics.incr Manifest.serve_alerts;
  match a.Alert.kind with
  | "moas" -> Metrics.incr Manifest.serve_alerts_moas
  | "subprefix" -> Metrics.incr Manifest.serve_alerts_subprefix
  | "origin-adjacency" -> Metrics.incr Manifest.serve_alerts_adjacency
  | _ -> ()

let process_one t (u : Update.t) =
  Metrics.incr Manifest.serve_released;
  Conformance.observe t.conformance u;
  note_evidence t.evidence u;
  queue_events t (Window.apply t.window u);
  let alerts = Alert.observe t.registry u in
  List.iter (count_alert t) alerts;
  queue_events t (List.map (fun a -> Event.Alert a) alerts)

(* The serve.* health surface is written through the [Manifest] handles,
   which declare all sixteen names. *)
let set_gauges t =
  let is = Ingest.stats t.ingest in
  let ws = Window.stats t.window in
  Metrics.set Manifest.serve_queue_depth (float_of_int is.Ingest.queued);
  if is.Ingest.max_seen > neg_infinity then
    Metrics.set Manifest.serve_watermark_lag
      (Float.max 0. (is.Ingest.max_seen -. Window.watermark t.window));
  Metrics.set Manifest.serve_live_keys (float_of_int ws.Window.live);
  Metrics.set Manifest.serve_ghost_keys (float_of_int ws.Window.ghosts)

let pump t =
  let due = Ingest.ready t.ingest in
  let n = List.length due in
  if n > 0 then begin
    let t0 = Clock.now () in
    List.iter (process_one t) due;
    let dt = Clock.now () -. t0 in
    Metrics.observe Manifest.serve_update_seconds (dt /. float_of_int n);
    set_gauges t;
    if t.n_pending >= max 1 t.config.Config.chunk then flush_events t
  end;
  n

let offer t u =
  Metrics.incr Manifest.serve_ingested;
  (match Ingest.push t.ingest u with
   | `Accepted -> ()
   | `Dropped_late -> Metrics.incr Manifest.serve_dropped_late
   | `Dropped_overflow -> Metrics.incr Manifest.serve_dropped_overflow);
  ignore (pump t : int)

let drain ?initial t ~horizon =
  if t.drained then invalid_arg "Serve.drain: already drained";
  t.drained <- true;
  let rest = Ingest.flush t.ingest in
  List.iter (process_one t) rest;
  queue_events t (Window.drain t.window ~horizon);
  let violations = Conformance.finalize ?initial t.conformance in
  Metrics.add Manifest.serve_violations (List.length violations);
  queue_events t
    (List.map
       (fun (v : Conformance.violation) ->
          Event.Violation
            { invariant = v.Conformance.invariant;
              message = v.Conformance.message })
       violations);
  (* Window evictions may have happened before this final accounting;
     mirror the total into the registry once, at end of stream. *)
  Metrics.add Manifest.serve_evictions (Window.stats t.window).Window.evictions;
  set_gauges t;
  flush_events t;
  List.iter Sink.close t.sinks;
  violations

let window t = t.window
let ingest t = t.ingest
let events_emitted t = t.n_events

(* ------------------------------------------------------------------ *)
(* Replay: feed a simulated measurement period through the service.    *)

type replay_result = {
  r_config : Config.t;
  r_duration : float;
  r_cells : Measurement.cell list;
  r_alerts : Alert.t list;
  r_events : int;
  r_violations : Conformance.violation list;
  r_ingest : Ingest.stats;
  r_window : Window.stats;
  r_dyn : Dynamics.stats;
  r_filter : Session_reset.stats option;
}

let watched_of config scenario p =
  Tor_prefix.is_tor_prefix scenario.Scenario.tor_prefixes p
  || List.exists
       (fun (c, g) -> Prefix.equal c p || Prefix.equal g p)
       config.Config.monitored

let replay ?(dynamics = Dynamics.default_config) ?no_filter
    ?extra_updates ?(sinks = []) ?(config = Config.default) ~exec
    scenario =
  Span.with_ ~name:"serve.replay" @@ fun () ->
  let duration = dynamics.Dynamics.duration in
  let t =
    create ~config ~duration ~watched:(watched_of config scenario) ~sinks
      ~exec ()
  in
  let initial, dyn_stats, filter_stats =
    Measurement.feed ~dynamics ?no_filter ?extra_updates
      ~on_initial:(fun initial ->
          Measurement.iter_baselines initial (Window.set_baseline t.window))
      scenario (offer t)
  in
  let violations = drain ~initial t ~horizon:duration in
  { r_config = config;
    r_duration = duration;
    r_cells = Window.cells t.window;
    r_alerts = alerts t;
    r_events = t.n_events;
    r_violations = violations;
    r_ingest = Ingest.stats t.ingest;
    r_window = Window.stats t.window;
    r_dyn = dyn_stats;
    r_filter = filter_stats }

(* ------------------------------------------------------------------ *)
(* Batch reference arm.                                                *)

let batch_alerts ?(dynamics = Dynamics.default_config) ?(no_filter = false)
    ?(extra_updates = []) ~learning_period scenario =
  (* The reset filter emits in global time order, so the batch detector
     consumes the [observe] hook directly — the very sequence the
     service's watermark releases. *)
  let monitor = Detection.create ~learning_period () in
  let batch = ref [] in
  let m =
    Measurement.run ~dynamics ~no_filter ~extra_updates
      ~observe:(fun u ->
          List.iter
            (fun a -> batch := Alert.of_alarm ~detector:"c1c" a :: !batch)
            (Detection.observe monitor u))
      scenario
  in
  (m, List.rev !batch)

(* ------------------------------------------------------------------ *)
(* Replay-equivalence verdict.                                         *)

let sort_cells cells =
  List.sort
    (fun (a : Measurement.cell) b -> Window.compare_key a.key b.key)
    cells

let pp_key ppf (k : Measurement.key) =
  Format.fprintf ppf "%a %a" Update.pp_session k.Measurement.session
    Prefix.pp k.Measurement.prefix

let sorted_assoc l =
  List.sort (fun (a, _) (b, _) -> Asn.compare a b) l

let assoc_equal a b =
  List.equal
    (fun (xa, da) (xb, db) -> Asn.equal xa xb && Float.equal da db)
    (sorted_assoc a) (sorted_assoc b)

let diff_cell ~threshold issues (s : Measurement.cell)
    (b : Measurement.cell) =
  let addf fmt = Format.kasprintf (fun m -> issues := m :: !issues) fmt in
  if not (Option.equal Asn.Set.equal s.baseline b.baseline) then
    addf "cell %a: baseline differs" pp_key s.key;
  if s.updates <> b.updates then
    addf "cell %a: updates %d (serve) vs %d (batch)" pp_key s.key s.updates
      b.updates;
  if s.path_changes <> b.path_changes then
    addf "cell %a: path changes %d (serve) vs %d (batch)" pp_key s.key
      s.path_changes b.path_changes;
  if not (Option.equal Asn.Set.equal s.final_set b.final_set) then
    addf "cell %a: final AS set differs" pp_key s.key;
  if not (assoc_equal s.residency b.residency) then
    addf "cell %a: residency differs" pp_key s.key;
  if not (assoc_equal s.contiguous b.contiguous) then
    addf "cell %a: contiguous runs differ" pp_key s.key;
  if
    not
      (Asn.Set.equal
         (Measurement.extra_ases ~threshold s)
         (Measurement.extra_ases ~threshold b))
  then addf "cell %a: extra-AS set differs" pp_key s.key

let diff_against_batch (r : replay_result) (m : Measurement.t)
    (batch_alerts : Alert.t list) =
  let issues = ref [] in
  let addf fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let is = r.r_ingest in
  if is.Ingest.dropped_late > 0 then
    addf "%d late drops in ingest (slack too small for the feed's disorder)"
      is.Ingest.dropped_late;
  if is.Ingest.dropped_overflow > 0 then
    addf "%d overflow drops in ingest (queue capacity too small)"
      is.Ingest.dropped_overflow;
  if is.Ingest.queued > 0 then
    addf "%d updates still queued after drain" is.Ingest.queued;
  List.iter
    (fun (v : Conformance.violation) ->
       addf "conformance violation [%s] %s" v.Conformance.invariant
         v.Conformance.message)
    r.r_violations;
  if List.length r.r_alerts <> List.length batch_alerts then
    addf "alert count %d (serve) vs %d (batch)" (List.length r.r_alerts)
      (List.length batch_alerts)
  else
    List.iteri
      (fun i (s, b) ->
         if not (Alert.equal s b) then
           addf "alert %d differs: %s (serve) vs %s (batch)" i
             s.Alert.summary b.Alert.summary)
      (List.combine r.r_alerts batch_alerts);
  let batch_cells = sort_cells m.Measurement.cells in
  if List.length r.r_cells <> List.length batch_cells then
    addf "cell count %d (serve) vs %d (batch)" (List.length r.r_cells)
      (List.length batch_cells)
  else
    List.iter2
      (fun (s : Measurement.cell) (b : Measurement.cell) ->
         if Window.compare_key s.key b.key <> 0 then
           addf "cell key mismatch: %a (serve) vs %a (batch)" pp_key s.key
             pp_key b.key
         else
           diff_cell ~threshold:r.r_config.Config.threshold issues s b)
      r.r_cells batch_cells;
  List.rev !issues

let pp_replay_summary ppf r =
  Format.fprintf ppf
    "@[<v>serve: %d cells, %d alerts, %d events, %d violations over %.0f s@,\
     %a@,%a@]"
    (List.length r.r_cells) (List.length r.r_alerts) r.r_events
    (List.length r.r_violations) r.r_duration Ingest.pp_stats r.r_ingest
    Window.pp_stats r.r_window

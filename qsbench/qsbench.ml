(* qsbench — the repository's benchmark.

   Four seeded workloads, each a closed loop with one caller: the next
   call starts when the previous one returns. Everything runs in this one
   process on a jobs = 1 pool. An invocation sets its workload up three
   times or more (the median is [setup_s]), runs one warm-up rep, then
   repeats the rep until --seconds have passed, and reports the median of
   the reps after the warm-up. Times are host-normalized (see
   "Host-speed calibration").

   --seed drives every random process of a workload: the BGP dynamics, the
   injected hijacks and the attack draws. The simulated Internet itself is
   the fixed seed-1 scenario of each size, so every seed measures the same
   world. A workload that would run one long period instead runs several
   short ones on sub-seeds of --seed, which keeps a run's cost close to the
   same from one seed to the next.

   With --trace 1, staged reps alternate with the plain ones. A staged rep
   computes the same results through the public functions of one layer at
   a time (see README.md), records a span per layer, and must produce the
   same digests as the plain rep. Those runs report per-layer metrics.

   Usage:
     qsbench.exe [--workload NAME|all] [--seed N] [--seconds S]
                 [--trace 0|1] [--out FILE] [--commit SHA]
     qsbench.exe --smoke --benchmark BENCHMARK.json

   The last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics. The exit code is 1 when any
   correctness check failed. *)

let workload_arg = ref "all"
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let out = ref ""
let commit = ref ""
let smoke = ref false
let benchmark = ref ""

(* ------------------------------------------------------------------ *)
(* Clocks and small helpers                                             *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9
let origin = now ()
let mb bytes = bytes /. 1e6

let counter name =
  match Metrics.value name with
  | Some (Metrics.Counter_v n) -> n
  | Some (Metrics.Gauge_v _ | Metrics.Hist_v _) | None -> 0

let render pp x = Format.asprintf "%a" pp x
let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let check ok fmt = Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

(* A growable array of updates: the staged pipeline hands whole streams
   from one layer to the next. *)
module Feed = struct
  type t = { mutable data : Update.t array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push t u =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (max 1024 (2 * t.len)) u in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- u;
    t.len <- t.len + 1

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.data.(i)
    done

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
end

let exec = Pool.create ~jobs:1 ()

(* The simulated Internet every seed shares (see the header). *)
let world_seed = 1

(* Sub-seed [k] of the run's --seed; distinct runs never share one while
   a workload uses fewer than 1000 of them. *)
let scenario_for world k = { world with Scenario.seed = (!seed * 1000) + k }

let iter_initial (initial : Dynamics.initial) f =
  Update.Session_map.iter
    (fun session table0 ->
       Prefix.Map.iter
         (fun prefix route ->
            f { Measurement.session; prefix } (Route.as_set route))
         table0)
    initial

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

type span = {
  name : string;
  parent : string;
  run : int;          (* the staged rep's id *)
  start : float;      (* seconds since process start *)
  stop : float;
  alloc_mb : float;
}

type tracer = { run_id : int; mutable spans : span list }

let stage ?(parent = "rep") tr name f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let rel t = Int64.to_float (Int64.sub t origin) *. 1e-9 in
  tr.spans <-
    { name; parent; run = tr.run_id; start = rel t0; stop = rel t1;
      alloc_mb = mb (Gc.allocated_bytes () -. a0) }
    :: tr.spans;
  r

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type outcome = {
  digests : string list;   (* one per operation group, in order *)
  attempted : int;
  failed : int;
  issues : string list;
  counts : (string * float) list;  (* per-layer counters of the rep *)
  samples : (string * float) list; (* other per-rep measurements *)
}

type instance = {
  build_s : float;                      (* scenario build inside set-up *)
  rep : unit -> unit -> outcome;        (* the timed part returns the
                                           untimed checks *)
  staged : tracer -> unit -> outcome;
}

type workload = { name : string; setup : unit -> instance }

let build size =
  let t0 = now () in
  let world = Scenario.build ~seed:world_seed size in
  (world, since t0)

(* [hours] of the default 30-day month at the same density: the duration
   and every per-duration rate scale by hours / 720. The month's 12 core
   link failures are spread evenly over a sequence of periods, and period
   [i] gets the ones that fall inside it. *)
let month_slice ~hours i =
  let d = Dynamics.default_config in
  let k = hours /. 720. in
  let per_period = float_of_int d.Dynamics.global_link_events *. k in
  let upto j = int_of_float (float_of_int j *. per_period) in
  { d with
    Dynamics.duration = hours *. 3600.;
    base_churn_rate = d.Dynamics.base_churn_rate *. k;
    global_link_events = upto (i + 1) - upto i;
    resets_per_session = d.Dynamics.resets_per_session *. k }

(* ---- measurement periods: small-periods and paper-1h --------------- *)

type period = {
  dyn : Dynamics.stats;
  filter : Session_reset.stats option;
  consumed : int;
  cells : Measurement.cell list;
  f3l : Path_changes.t;
  f3r : As_exposure.t;
  m1 : float * float;
}

let analysed (m : Measurement.t) ~consumed ~f3l ~f3r =
  { dyn = m.Measurement.dyn_stats; filter = m.Measurement.filter_stats;
    consumed; cells = m.Measurement.cells; f3l; f3r;
    m1 = Compromise.exposure_based ~f:0.05 ~l:3 f3r }

let run_period (cfg, sc) =
  let c0 = counter "measurement.updates" in
  let m = Measurement.run ~dynamics:cfg sc in
  let consumed = counter "measurement.updates" - c0 in
  analysed m ~consumed ~f3l:(Path_changes.compute ~exec m)
    ~f3r:(As_exposure.compute ~exec m)

(* Every field of every cell, floats bit for bit: the analyses alone
   would not see, say, a residency one second short. *)
let cells_text cells =
  let buf = Buffer.create (1 lsl 16) in
  let asns = function
    | Some set -> String.concat "," (List.map Asn.to_string (Asn.Set.elements set))
    | None -> "-"
  in
  let runs l =
    List.sort (fun (a, _) (b, _) -> Asn.compare a b) l
    |> List.map (fun (a, d) -> Printf.sprintf "%s:%h" (Asn.to_string a) d)
    |> String.concat ","
  in
  List.iter
    (fun (c : Measurement.cell) ->
       let k = c.Measurement.key in
       Printf.bprintf buf "%s %s %s %d %d %s %s %s %s\n"
         k.Measurement.session.Update.collector
         (Asn.to_string k.Measurement.session.Update.peer)
         (Prefix.to_string k.Measurement.prefix) c.Measurement.updates
         c.Measurement.path_changes (asns c.Measurement.baseline)
         (asns c.Measurement.final_set) (runs c.Measurement.residency)
         (runs c.Measurement.contiguous))
    cells;
  Buffer.contents buf

let period_digest p =
  digest
    [ cells_text p.cells;
      render Path_changes.print p.f3l;
      render As_exposure.print p.f3r;
      String.concat " " (List.map (Printf.sprintf "%h") p.f3l.Path_changes.ratios);
      String.concat " " (List.map string_of_int p.f3r.As_exposure.extras);
      Printf.sprintf "%h %h %d" (fst p.m1) (snd p.m1) p.consumed ]

(* The accounting identities every period must satisfy. *)
let period_issues p =
  let d = p.dyn in
  match p.filter with
  | None -> [ "measurement ran without the session-reset filter" ]
  | Some f ->
      check (f.Session_reset.pushed = d.Dynamics.updates_emitted)
        "session_reset: pushed %d <> %d updates emitted" f.Session_reset.pushed
        d.Dynamics.updates_emitted
      @ check
          (f.Session_reset.pushed = f.Session_reset.passed + f.Session_reset.dropped
           && f.Session_reset.buffered = 0)
          "session_reset: pushed %d <> passed %d + dropped %d (%d buffered)"
          f.Session_reset.pushed f.Session_reset.passed f.Session_reset.dropped
          f.Session_reset.buffered
      @ check
          (d.Dynamics.full_recomputations + d.Dynamics.delta_steps
           = d.Dynamics.cache_misses)
          "dynamics: hits %d + full %d + delta %d <> %d outcome requests"
          d.Dynamics.cache_hits d.Dynamics.full_recomputations
          d.Dynamics.delta_steps
          (d.Dynamics.cache_hits + d.Dynamics.cache_misses)
      @ check (p.consumed = f.Session_reset.passed)
          "measurement: consumed %d <> %d passed by the filter" p.consumed
          f.Session_reset.passed

let period_counts ps =
  let sum f = float_of_int (Array.fold_left (fun acc p -> acc + f p) 0 ps) in
  let fsum f =
    sum (fun p -> match p.filter with Some s -> f s | None -> 0)
  in
  [ ("dynamics.updates", sum (fun p -> p.dyn.Dynamics.updates_emitted));
    ("dynamics.churn_events", sum (fun p -> p.dyn.Dynamics.churn_events));
    ("dynamics.full_recomputations",
     sum (fun p -> p.dyn.Dynamics.full_recomputations));
    ("dynamics.delta_steps", sum (fun p -> p.dyn.Dynamics.delta_steps));
    ("dynamics.delta_stop_early", sum (fun p -> p.dyn.Dynamics.delta_stop_early));
    ("route_cache.hits", sum (fun p -> p.dyn.Dynamics.cache_hits));
    ("route_cache.misses", sum (fun p -> p.dyn.Dynamics.cache_misses));
    ("route_cache.evictions", sum (fun p -> p.dyn.Dynamics.cache_evictions));
    ("session_reset.pushed", fsum (fun s -> s.Session_reset.pushed));
    ("session_reset.passed", fsum (fun s -> s.Session_reset.passed));
    ("session_reset.dropped", fsum (fun s -> s.Session_reset.dropped));
    ("session_reset.bursts", fsum (fun s -> List.length s.Session_reset.bursts));
    ("measurement.cells", sum (fun p -> List.length p.cells));
    ("measurement.consumed", sum (fun p -> p.consumed)) ]

let periods_outcome ps =
  let bad = Array.map period_issues ps in
  { digests = Array.to_list (Array.map period_digest ps);
    attempted = Array.length ps;
    failed = Array.fold_left (fun n l -> if l = [] then n else n + 1) 0 bad;
    issues = List.concat (Array.to_list bad);
    counts = period_counts ps;
    samples = [] }

let acc_of table key =
  match Measurement.Key_table.find_opt table key with
  | Some a -> a
  | None ->
      let a = Measurement.Acc.create () in
      Measurement.Key_table.replace table key a;
      a

(* The sealing fold of [Measurement.run], over a table of the same
   initial size filled in the same order, so the cell list and every
   analysis match it. *)
let seal sc cfg initial dyn_stats fstats table : Measurement.t =
  let duration = cfg.Dynamics.duration in
  let visibility = Prefix.Table.create 4096 in
  let cells =
    Measurement.Key_table.fold
      (fun key acc out ->
         if Option.is_some (Measurement.Acc.baseline acc)
         || Measurement.Acc.announces acc > 0
         then Measurement.Acc.seal acc duration;
         match Measurement.Acc.cell key acc with
         | None -> out
         | Some cell ->
             let p = key.Measurement.prefix in
             let cur = Option.value ~default:0 (Prefix.Table.find_opt visibility p) in
             Prefix.Table.replace visibility p (cur + 1);
             cell :: out)
      table []
  in
  { Measurement.scenario = sc; duration; initial; cells; dyn_stats;
    filter_stats = Some fstats; visibility;
    n_sessions = List.length (Scenario.sessions sc) }

(* [Measurement.run] and the analyses, one layer at a time over every
   period of the rep. *)
let staged_periods tr plan =
  let raw =
    stage tr "dynamics" (fun () ->
        Array.map
          (fun (cfg, sc) ->
             let feed = Feed.create () in
             let initial, stats =
               Dynamics.run ~rng:(Scenario.rng_for sc "measurement")
                 ~trace_rng:(Scenario.rng_for sc "trace-churn") cfg
                 sc.Scenario.world ~emit:(Feed.push feed)
             in
             (initial, stats, feed))
          plan)
  in
  let filtered =
    stage tr "session_reset" (fun () ->
        Array.map
          (fun (initial, _, feed) ->
             let passed = Feed.create () in
             let f = Session_reset.create ~emit:(Feed.push passed) () in
             Update.Session_map.iter
               (fun s table0 ->
                  Session_reset.preload_table f s (Prefix.Map.cardinal table0))
               initial;
             Feed.iter
               (fun (u : Update.t) ->
                  Session_reset.advance f u.Update.time;
                  Session_reset.push f u)
               feed;
             Session_reset.flush f;
             (Session_reset.stats f, passed))
          raw)
  in
  let tables =
    stage tr "measurement.baseline" (fun () ->
        Array.map
          (fun (initial, _, _) ->
             let table = Measurement.Key_table.create 65536 in
             iter_initial initial (fun key set ->
                 Measurement.Acc.set_baseline (acc_of table key) set);
             table)
          raw)
  in
  stage tr "measurement.consume" (fun () ->
      Array.iteri
        (fun i table ->
           Feed.iter
             (fun u ->
                let key =
                  { Measurement.session = u.Update.session; prefix = Update.prefix u }
                in
                ignore (Measurement.Acc.consume (acc_of table key) u
                        : Measurement.Acc.event))
             (snd filtered.(i)))
        tables);
  let ms =
    stage tr "measurement.seal" (fun () ->
        Array.mapi
          (fun i table ->
             let cfg, sc = plan.(i) in
             let initial, stats, _ = raw.(i) in
             seal sc cfg initial stats (fst filtered.(i)) table)
          tables)
  in
  let f3l =
    stage tr "path_changes" (fun () -> Array.map (Path_changes.compute ~exec) ms)
  in
  let f3r =
    stage tr "as_exposure" (fun () ->
        Array.map (fun m -> As_exposure.compute ~exec m) ms)
  in
  stage tr "compromise" (fun () ->
      Array.mapi
        (fun i m ->
           analysed m ~consumed:(Feed.length (snd filtered.(i))) ~f3l:f3l.(i)
             ~f3r:f3r.(i))
        ms)

let periods_workload ~name ~size ~periods ~hours =
  { name;
    setup = (fun () ->
        let world, build_s = build size in
        let plan =
          Array.init periods (fun i -> (month_slice ~hours i, scenario_for world i))
        in
        { build_s;
          rep = (fun () ->
              let ps = Array.map run_period plan in
              fun () -> periods_outcome ps);
          staged = (fun tr ->
              let ps = staged_periods tr plan in
              fun () -> periods_outcome ps) }) }

(* ---- serve-small ---------------------------------------------------- *)

let serve_config = Serve.Config.default

type feed = {
  fsc : Scenario.t;
  horizon : float;
  batch : Measurement.t;
  batch_alerts : Alert.t list;
  updates : Update.t array;
  feed_issues : string list;
  events_digest : string;   (* of the JSON event stream; "" unless traced *)
}

let watched (sc : Scenario.t) p =
  Tor_prefix.is_tor_prefix sc.Scenario.tor_prefixes p

(* One plain service pass over a captured feed, as [quicksand serve]
   runs it, minus the dynamics. [on_offer] wraps each offer. *)
let serve_pass ?(sinks = [ Sink.null ]) ~on_offer f =
  let t =
    Serve.create ~config:serve_config ~duration:f.horizon ~watched:(watched f.fsc)
      ~sinks ~exec ()
  in
  let w = Serve.window t in
  iter_initial f.batch.Measurement.initial (fun key set ->
      Window.set_baseline w key set);
  Array.iter (fun u -> on_offer (fun () -> Serve.offer t u)) f.updates;
  let violations = Serve.drain ~initial:f.batch.Measurement.initial t ~horizon:f.horizon in
  (t, violations)

let events_digest f =
  let buf = Buffer.create (1 lsl 16) in
  let sink =
    Sink.make ~name:"digest" (fun batch ->
        Array.iter (fun (_, json) -> Buffer.add_string buf json; Buffer.add_char buf '\n') batch)
  in
  ignore (serve_pass ~sinks:[ sink ] ~on_offer:(fun offer -> offer ()) f);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Set-up: the month-density stream of one sub-seed with 4 hijacks
   spliced in, captured after the reset filter, with the batch
   measurement and batch C1c alerts the service must reproduce (what
   [Serve.batch_alerts] computes). *)
let capture_feed cfg sc =
  let horizon = cfg.Dynamics.duration in
  let _, extras =
    Countermeasures.inject_hijacks ~rng:(Scenario.rng_for sc "serve") ~n_attacks:4
      ~duration:horizon sc
  in
  let monitor =
    Detection.create ~learning_period:serve_config.Serve.Config.learning_period ()
  in
  let feed = Feed.create () and alerts = ref [] in
  let c0 = counter "measurement.updates" in
  let batch =
    Measurement.run ~dynamics:cfg ~extra_updates:extras
      ~observe:(fun u ->
          Feed.push feed u;
          List.iter
            (fun a -> alerts := Alert.of_alarm ~detector:"c1c" a :: !alerts)
            (Detection.observe monitor u))
      sc
  in
  let consumed = counter "measurement.updates" - c0 in
  let passed =
    match batch.Measurement.filter_stats with
    | Some s -> s.Session_reset.passed
    | None -> 0
  in
  let f =
    { fsc = sc; horizon; batch; batch_alerts = List.rev !alerts;
      updates = Feed.to_array feed;
      feed_issues =
        check (consumed = passed + List.length extras)
          "serve set-up: consumed %d <> passed %d + %d injected" consumed passed
          (List.length extras);
      events_digest = "" }
  in
  if !trace = 1 then { f with events_digest = events_digest f } else f

let replay_of f ~cells ~alerts ~events ~violations ~ingest ~window =
  { Serve.r_config = serve_config; r_duration = f.horizon; r_cells = cells;
    r_alerts = alerts; r_events = events; r_violations = violations;
    r_ingest = ingest; r_window = window;
    r_dyn = f.batch.Measurement.dyn_stats;
    r_filter = f.batch.Measurement.filter_stats }

let feed_digest f (r : Serve.replay_result) =
  let m = { f.batch with Measurement.cells = r.Serve.r_cells } in
  digest
    (render Path_changes.print (Path_changes.compute ~exec m)
     :: render As_exposure.print (As_exposure.compute ~exec m)
     :: string_of_int r.Serve.r_events
     :: List.map (fun (a : Alert.t) -> a.Alert.summary) r.Serve.r_alerts)

(* Failures count per offer: late and overflow drops, conformance
   violations, plus one for each feed whose result breaks an identity or
   differs from batch. *)
let serve_outcome feeds results ~samples ~extra_issues =
  let issues = ref extra_issues and failed = ref (List.length extra_issues) in
  Array.iteri
    (fun i (r : Serve.replay_result) ->
       let f = feeds.(i) in
       let is = r.Serve.r_ingest in
       let mine =
         f.feed_issues
         @ check
             (is.Ingest.ingested
              = is.Ingest.released + is.Ingest.dropped_late
                + is.Ingest.dropped_overflow + is.Ingest.queued)
             "ingest: ingested %d <> released %d + late %d + overflow %d + queued %d"
             is.Ingest.ingested is.Ingest.released is.Ingest.dropped_late
             is.Ingest.dropped_overflow is.Ingest.queued
         @ List.map (fun d -> "serve vs batch: " ^ d)
             (Serve.diff_against_batch r f.batch f.batch_alerts)
       in
       failed :=
         !failed + is.Ingest.dropped_late + is.Ingest.dropped_overflow
         + List.length r.Serve.r_violations
         + (if mine = [] then 0 else 1);
       issues := !issues @ mine)
    results;
  let sum f =
    float_of_int (Array.fold_left (fun acc r -> acc + f r) 0 results)
  in
  { digests = Array.to_list (Array.mapi (fun i r -> feed_digest feeds.(i) r) results);
    attempted = Array.fold_left (fun n f -> n + Array.length f.updates) 0 feeds;
    failed = !failed;
    issues = !issues;
    counts =
      [ ("serve.offers", sum (fun r -> r.Serve.r_ingest.Ingest.ingested));
        ("ingest.released", sum (fun r -> r.Serve.r_ingest.Ingest.released));
        ("ingest.dropped_late", sum (fun r -> r.Serve.r_ingest.Ingest.dropped_late));
        ("ingest.dropped_overflow",
         sum (fun r -> r.Serve.r_ingest.Ingest.dropped_overflow));
        ("window.evictions", sum (fun r -> r.Serve.r_window.Window.evictions));
        ("window.live_keys", sum (fun r -> r.Serve.r_window.Window.live));
        ("window.ghosts", sum (fun r -> r.Serve.r_window.Window.ghosts));
        ("alert.alerts", sum (fun r -> List.length r.Serve.r_alerts));
        ("event.events", sum (fun r -> r.Serve.r_events)) ];
    samples }

(* [Serve]'s per-prefix evidence ring, rebuilt for the staged alert
   layer: alerts render it into their JSON events. *)
let evidence_depth = 4

let note_evidence table u =
  let p = Update.prefix u in
  let old = Option.value ~default:[] (Prefix.Table.find_opt table p) in
  Prefix.Table.replace table p (u :: List.filteri (fun i _ -> i < evidence_depth - 1) old)

(* The service, one layer at a time over every feed of the rep. *)
let staged_serve tr feeds =
  let ingested =
    stage tr "ingest" (fun () ->
        Array.map
          (fun f ->
             let ing = Ingest.create ~config:(Serve.Config.ingest_config serve_config) () in
             let released = Feed.create () in
             Array.iter
               (fun u ->
                  ignore (Ingest.push ing u : Ingest.push_result);
                  List.iter (Feed.push released) (Ingest.ready ing))
               f.updates;
             List.iter (Feed.push released) (Ingest.flush ing);
             (Ingest.stats ing, Feed.to_array released))
          feeds)
  in
  let violations =
    stage tr "conformance" (fun () ->
        Array.mapi
          (fun i f ->
             let c = Conformance.create ~duration:f.horizon ~require_global_order:true () in
             Array.iter (Conformance.observe c) (snd ingested.(i));
             Conformance.finalize ~initial:f.batch.Measurement.initial c)
          feeds)
  in
  let windows =
    stage tr "window.apply" (fun () ->
        Array.mapi
          (fun i f ->
             let w =
               Window.create ~config:(Serve.Config.window_config serve_config)
                 ~watched:(watched f.fsc) ()
             in
             iter_initial f.batch.Measurement.initial (Window.set_baseline w);
             (w, Array.map (Window.apply w) (snd ingested.(i))))
          feeds)
  in
  let drained =
    stage tr "window.drain" (fun () ->
        Array.mapi (fun i f -> Window.drain (fst windows.(i)) ~horizon:f.horizon) feeds)
  in
  let alerts =
    stage tr "alert" (fun () ->
        Array.mapi
          (fun i _ ->
             let evidence = Prefix.Table.create 1024 in
             let reg = Alert.registry () in
             Alert.register reg
               (Alert.c1c ~learning_period:serve_config.Serve.Config.learning_period
                  ~evidence:(fun p ->
                      Option.value ~default:[] (Prefix.Table.find_opt evidence p))
                  ());
             Array.map
               (fun u -> note_evidence evidence u; Alert.observe reg u)
               (snd ingested.(i)))
          feeds)
  in
  let events =
    stage tr "event" (fun () ->
        Array.mapi
          (fun i _ ->
             let per_update = snd windows.(i) in
             let stream =
               List.concat
                 (Array.to_list
                    (Array.mapi
                       (fun j evs -> evs @ List.map (fun a -> Event.Alert a) alerts.(i).(j))
                       per_update))
               @ drained.(i)
               @ List.map
                   (fun (v : Conformance.violation) ->
                      Event.Violation
                        { invariant = v.Conformance.invariant;
                          message = v.Conformance.message })
                   violations.(i)
             in
             let buf = Buffer.create (1 lsl 16) in
             List.iter
               (fun e -> Buffer.add_string buf (Event.to_json e); Buffer.add_char buf '\n')
               stream;
             (List.length stream, Digest.to_hex (Digest.string (Buffer.contents buf))))
          feeds)
  in
  Array.mapi
    (fun i f ->
       let w = fst windows.(i) in
       ( replay_of f ~cells:(Window.cells w)
           ~alerts:(List.concat (Array.to_list alerts.(i)))
           ~events:(fst events.(i)) ~violations:violations.(i)
           ~ingest:(fst ingested.(i)) ~window:(Window.stats w),
         snd events.(i) ))
    feeds

let serve_workload ~feeds:n_feeds ~hours =
  { name = "serve-small";
    setup = (fun () ->
        let world, build_s = build Scenario.Small in
        let feeds =
          Array.init n_feeds (fun i -> capture_feed (month_slice ~hours i) (scenario_for world i))
        in
        let n = Array.fold_left (fun n f -> n + Array.length f.updates) 0 feeds in
        let lat = Array.make n 0. in
        { build_s;
          rep = (fun () ->
              let pos = ref 0 in
              let on_offer offer =
                let t0 = now () in
                offer ();
                lat.(!pos) <- since t0;
                incr pos
              in
              let passes = Array.map (fun f -> serve_pass ~on_offer f) feeds in
              fun () ->
                let results =
                  Array.mapi
                    (fun i (t, violations) ->
                       replay_of feeds.(i) ~cells:(Window.cells (Serve.window t))
                         ~alerts:(Serve.alerts t) ~events:(Serve.events_emitted t)
                         ~violations ~ingest:(Ingest.stats (Serve.ingest t))
                         ~window:(Window.stats (Serve.window t)))
                    passes
                in
                let sorted = Array.copy lat in
                Array.sort Float.compare sorted;
                serve_outcome feeds results ~extra_issues:[]
                  ~samples:
                    [ ("offer_p50_us", 1e6 *. Summary.percentile sorted 0.5);
                      ("offer_p99_us", 1e6 *. Summary.percentile sorted 0.99) ]);
          staged = (fun tr ->
              let staged = staged_serve tr feeds in
              fun () ->
                let extra_issues =
                  List.concat
                    (Array.to_list
                       (Array.mapi
                          (fun i (_, d) ->
                             check (String.equal d feeds.(i).events_digest)
                               "feed %d: staged event stream differs from the service's" i)
                          staged))
                in
                serve_outcome feeds (Array.map fst staged) ~samples:[] ~extra_issues) }) }

(* ---- attack-paper --------------------------------------------------- *)

type attack_sizes = {
  subseeds : int;       (* independent adversaries, each a full set of draws *)
  horizon_days : int;
  clients : int;        (* of the living-consensus M2 run *)
  trials : int;         (* A1 and A2 *)
  sweep_trials : int;   (* X1, per deployment level *)
}

let attack_counters = [ "attack.hijack.runs"; "attack.interception.runs"; "consensus.epochs" ]

(* How a rep makes each experiment call: directly, or inside a span. *)
type caller = { call : 'a. string -> (unit -> 'a) -> 'a }

let attack_workload ~size ~sizes =
  let experiments { call } sc =
    let rng name = Scenario.rng_for sc name in
    let living =
      call "consensus_dynamics" (fun () ->
          Long_term.living_consensus ~horizon_days:sizes.horizon_days sc)
    in
    let designs =
      call "long_term.compare_designs" (fun () ->
          Long_term.compare_designs ~rng:(rng "long-term")
            ~horizon_days:sizes.horizon_days ~n_draws:1 ~exec sc)
    in
    let lived =
      call "long_term.run_living" (fun () ->
          Long_term.run ~rng:(rng "long-term")
            ~config:{ Long_term.default_config with
                      Long_term.horizon_days = sizes.horizon_days;
                      n_clients = sizes.clients }
            ~living ~exec sc)
    in
    let hijack =
      call "deanonymization.hijack" (fun () ->
          Deanonymization.hijack ~rng:(rng "hijack") ~n_trials:sizes.trials
            ~n_clients:40 sc)
    in
    let interception =
      call "deanonymization.interception" (fun () ->
          Deanonymization.interception ~rng:(rng "interception")
            ~n_trials:sizes.trials sc)
    in
    let rov =
      call "bgp_security.sweep" (fun () ->
          Bgp_security.sweep ~rng:(rng "rov") ~n_trials:sizes.sweep_trials sc)
    in
    fun () ->
      [ digest [ Consensus_dynamics.to_string living ];
        digest [ render Long_term.print designs ];
        digest [ render Long_term.print [ lived ] ];
        digest [ render Deanonymization.print_hijack hijack ];
        digest [ render Deanonymization.print_interception interception ];
        digest [ render Bgp_security.print rov ] ]
  in
  { name = "attack-paper";
    setup = (fun () ->
        let world, build_s = build size in
        let run caller =
          let before = List.map counter attack_counters in
          let renders =
            List.init sizes.subseeds (fun k -> experiments caller (scenario_for world k))
          in
          fun () ->
            let digests = List.concat_map (fun render -> render ()) renders in
            { digests; attempted = List.length digests; failed = 0; issues = [];
              counts =
                List.map2
                  (fun name c0 -> (name, float_of_int (counter name - c0)))
                  attack_counters before;
              samples = [] }
        in
        { build_s;
          rep = (fun () -> run { call = (fun _ f -> f ()) });
          staged = (fun tr -> run { call = (fun name f -> stage tr name f) }) }) }

(* ---- the workload table --------------------------------------------- *)

let workloads () =
  let smoke = !smoke in
  let paper = if smoke then Scenario.Small else Scenario.Paper in
  [ periods_workload ~name:"small-periods"
      ~size:Scenario.Small ~periods:(if smoke then 1 else 32) ~hours:3.;
    periods_workload ~name:"paper-1h"
      ~size:paper ~periods:1 ~hours:(if smoke then 6. else 1.);
    serve_workload ~feeds:(if smoke then 1 else 16) ~hours:12.;
    attack_workload ~size:paper
      ~sizes:
        (if smoke then
           { subseeds = 1; horizon_days = 30; clients = 8; trials = 2; sweep_trials = 2 }
         else
           { subseeds = 6; horizon_days = 5; clients = 8; trials = 2; sweep_trials = 1 }) ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

let end_to_end =
  [ ("setup_s", "s"); ("rep_s", "s"); ("alloc_mb", "MB"); ("peak_heap_mb", "MB") ]

let stages =
  [ "dynamics"; "session_reset"; "measurement.baseline"; "measurement.consume";
    "measurement.seal"; "path_changes"; "as_exposure"; "compromise"; "ingest";
    "conformance"; "window.apply"; "window.drain"; "alert"; "event";
    "consensus_dynamics"; "long_term.compare_designs"; "long_term.run_living";
    "deanonymization.hijack"; "deanonymization.interception";
    "bgp_security.sweep" ]

let alloc_groups =
  [ ("dynamics.alloc_mb", [ "dynamics" ]);
    ("measurement.alloc_mb",
     [ "measurement.baseline"; "measurement.consume"; "measurement.seal" ]);
    ("window.alloc_mb", [ "window.apply"; "window.drain" ]) ]

let count_names =
  [ "dynamics.updates"; "dynamics.churn_events"; "dynamics.full_recomputations";
    "dynamics.delta_steps"; "dynamics.delta_stop_early"; "route_cache.hits";
    "route_cache.misses"; "route_cache.evictions"; "session_reset.pushed";
    "session_reset.passed"; "session_reset.dropped"; "session_reset.bursts";
    "measurement.cells"; "measurement.consumed"; "serve.offers";
    "ingest.released"; "ingest.dropped_late"; "ingest.dropped_overflow";
    "window.evictions"; "window.live_keys"; "window.ghosts"; "alert.alerts";
    "event.events" ]
  @ attack_counters

let per_layer_names =
  [ "scenario.build_s"; "trace.staged_s"; "trace.overhead_pct" ]
  @ List.map (fun s -> s ^ ".time_pct") stages
  @ List.map fst alloc_groups
  @ count_names
  @ [ "dynamics.delta_share"; "route_cache.hit_ratio" ]

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                               *)

(* The benchmark host shares its cores, and its speed drifts by tens of
   percent, from one second to the next as well as over minutes. A fixed
   kernel that runs no code of this repository measures it. The kernel has
   three parts, since a co-tenant can slow the core, memory latency and
   memory bandwidth by different amounts: pseudo-random increments and
   hashes over a 512 KB table (about half the kernel's time), a dependent
   walk through a 64 MB table (a fifth) and a 16 MB fill (a quarter), both
   tables outside the OCaml heap. Those shares are the ones whose slowdown
   tracked the workloads' most closely on the 2-CPU shared host the
   benchmark was built on: over ten runs on one seed, the normalized rep
   times of small-periods and paper-1h varied by 3% (sd) where the raw ones
   varied by 15%. The kernel allocates nothing, so the garbage a rep
   leaves behind cannot slow it.

   While a set-up or a plain rep runs, the kernel runs once every
   [sample_every] seconds of work (see [sampled]), so the work is cut into
   segments, each followed by one kernel run. A segment counts as its
   time times [calib_ref] over that kernel run's time: seconds on a host
   where the kernel takes [calib_ref]. The end-to-end times are sums of
   such segments. Staged reps, whose layer spans the kernel would
   disturb, are instead scaled by the run's fastest calibration (the
   kernel timed five times after every set-up and rep). Raw times go to
   --out. *)
let calib_ref = 0.010
let sample_every = 0.1

let calib_table = Array.make 65536 0

(* slot i holds the next slot of a full-period LCG over 2^23 slots *)
let calib_walk =
  lazy
    (let n = 1 lsl 23 in
     let a = Bigarray.(Array1.create int c_layout n) in
     for i = 0 to n - 1 do
       a.{i} <- ((i * 1103515245) + 12345) land (n - 1)
     done;
     a)

let calib_fill = lazy Bigarray.(Array1.create int c_layout (1 lsl 21))

let calib_kernel () =
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land 0xffff in
    let v = calib_table.(i) in
    calib_table.(i) <- v + 1;
    acc := !acc + Hashtbl.hash (v lxor !x)
  done;
  let walk = Lazy.force calib_walk in
  let j = ref (!acc land 0xffff) in
  for _ = 1 to 12_500 do
    j := Bigarray.Array1.unsafe_get walk !j
  done;
  let fill = Lazy.force calib_fill in
  Bigarray.Array1.fill fill !j;
  !acc + !j + Bigarray.Array1.unsafe_get fill (!acc land 0xffff)

let calibrate () =
  ignore (Lazy.force calib_walk, Lazy.force calib_fill);
  Summary.median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (calib_kernel ()));
         since t0))

(* The sampler: a one-shot SIGALRM, re-armed after every kernel run, so
   that segments are [sample_every] seconds of work whatever the kernel
   took. OCaml runs the handler at the next safe point of the main
   domain; the timed code does no blocking system call it could break. *)
type sampler = {
  mutable active : bool;
  mutable seg_start : int64;
  mutable segments : (float * float) list;  (* work s, kernel s; newest first *)
}

let sampler = { active = false; seg_start = 0L; segments = [] }

let set_alarm after =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = after }
          : Unix.interval_timer_status)

let end_segment () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  let t1 = now () in
  let secs a b = Int64.to_float (Int64.sub b a) *. 1e-9 in
  sampler.segments <- (secs sampler.seg_start t0, secs t0 t1) :: sampler.segments;
  sampler.seg_start <- t1

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
          if sampler.active && Domain.is_main_domain () then begin
            end_segment ();
            set_alarm sample_every
          end))

(* [f ()], its raw time (kernel runs excluded) and its normalized time. *)
let sampled f =
  ignore (Lazy.force calib_walk, Lazy.force calib_fill);
  sampler.segments <- [];
  sampler.seg_start <- now ();
  sampler.active <- true;
  set_alarm sample_every;
  let r =
    Fun.protect f ~finally:(fun () ->
        sampler.active <- false;
        set_alarm 0.)
  in
  end_segment ();
  let raw, norm =
    List.fold_left
      (fun (raw, norm) (work, kernel) -> (raw +. work, norm +. (work *. calib_ref /. kernel)))
      (0., 0.) sampler.segments
  in
  (r, raw, norm)

(* [f ()] with its raw and normalized times ([sampled] unless [sample] is
   false, when both are the wall time), followed by one calibration. *)
let timed ?(sample = true) calibrations f =
  let r, raw, norm =
    if sample then sampled f
    else
      let t0 = now () in
      let r = f () in
      let raw = since t0 in
      (r, raw, raw)
  in
  calibrations := calibrate () :: !calibrations;
  (r, raw, norm)

(* ------------------------------------------------------------------ *)
(* Running a workload                                                   *)

type kind = Warmup | Timed | Staged

type rep = {
  kind : kind;
  wall : float;            (* raw seconds, kernel runs excluded *)
  normalized : float;      (* seconds on the reference host; staged: = wall *)
  alloc : float;           (* MB *)
  stage_s : (string * (float * float)) list;  (* raw seconds, MB *)
  outcome : outcome;
}

type result = {
  workload : workload;
  setups : float list;             (* raw seconds *)
  host : float;                    (* calib_ref / fastest calibration *)
  calibrations : float list;
  reps : rep list;                 (* in run order *)
  correct : bool;
  attempted : int;
  failed : int;
  issues : string list;
  e2e : (string * float * string * float list) list;
  layers : (string * float * string) list;
  extra : (string * float * string) list;
  spans : span list;
}

let lookup k l = Option.value ~default:0. (List.assoc_opt k l)
let ratio a b = if b > 0. then a /. b else 0.

let run_workload w =
  let traced = !trace = 1 in
  let calibrations = ref [ calibrate () ] in
  (* At least three set-ups, and more of a cheap one until they add up
     to a second and a half (at most 50), so the median is not one page
     fault's worth. Only the last instance is kept. *)
  let last = ref None and setup_raws = ref [] and setup_norms = ref []
  and build_raws = ref [] in
  let enough () =
    let n = List.length !setup_raws in
    (!smoke && n > 0)
    || (n >= 3 && (List.fold_left ( +. ) 0. !setup_raws >= 1.5 || n >= 50))
  in
  while not (enough ()) do
    (* the previous set-up's world is garbage: free it first, so the heap
       peak is one world's *)
    last := None;
    Gc.full_major ();
    let i, raw, norm = timed calibrations w.setup in
    last := Some i;
    setup_raws := raw :: !setup_raws;
    setup_norms := norm :: !setup_norms;
    build_raws := i.build_s :: !build_raws
  done;
  let inst = match !last with Some i -> i | None -> invalid_arg "qsbench: no set-up" in
  let reference = ref None in
  let attempted = ref 0 and failed = ref 0 and issues = ref [] in
  (* Every rep must reproduce the first rep's digests, operation by
     operation; a staged rep must reproduce the plain one's. *)
  let note (o : outcome) =
    let mismatched =
      match !reference with
      | None -> reference := Some o.digests; 0
      | Some ds when List.compare_lengths ds o.digests <> 0 -> List.length o.digests
      | Some ds ->
          List.fold_left2
            (fun n a b -> if String.equal a b then n else n + 1)
            0 ds o.digests
    in
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed + mismatched;
    issues :=
      !issues @ o.issues
      @ check (mismatched = 0) "%d result digest(s) differ from the first rep's"
          mismatched
  in
  let spans = ref [] and staged_runs = ref 0 in
  let one kind =
    let tr = { run_id = !staged_runs; spans = [] } in
    let (checks, alloc), wall, normalized =
      timed ~sample:(kind <> Staged) calibrations (fun () ->
          let a0 = Gc.allocated_bytes () in
          let checks =
            match kind with
            | Staged -> stage ~parent:"" tr "rep" (fun () -> inst.staged tr)
            | Warmup | Timed -> inst.rep ()
          in
          (checks, mb (Gc.allocated_bytes () -. a0)))
    in
    let outcome = checks () in
    note outcome;
    let stage_s =
      List.map
        (fun s ->
           let mine = List.filter (fun (sp : span) -> String.equal sp.name s) tr.spans in
           ( s,
             ( List.fold_left (fun acc sp -> acc +. (sp.stop -. sp.start)) 0. mine,
               List.fold_left (fun acc sp -> acc +. sp.alloc_mb) 0. mine ) ))
        stages
    in
    if kind = Staged then begin
      incr staged_runs;
      spans := tr.spans @ !spans
    end;
    { kind; wall; normalized; alloc; stage_s; outcome }
  in
  let t_start = now () in
  let warmup = one Warmup in
  let peak =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  let reps = ref [ warmup ] in
  let count k = List.length (List.filter (fun r -> r.kind = k) !reps) in
  let more () =
    if !smoke then traced && count Staged = 0
    else
      since t_start < !seconds
      || count Timed = 0
      || (traced && count Staged = 0)
  in
  while more () do
    let next = if traced && count Staged <= count Timed then Staged else Timed in
    reps := !reps @ [ one next ]
  done;
  let reps = !reps in
  let of_kind k = List.filter (fun r -> r.kind = k) reps in
  let plain = match of_kind Timed with [] -> [ warmup ] | l -> l in
  let staged = of_kind Staged in
  let host = calib_ref /. List.fold_left Float.min infinity !calibrations in
  let norm r = r.wall *. host in
  let rep_samples = List.map (fun r -> r.normalized) plain in
  let rep_s = Summary.median rep_samples in
  let setup_samples = List.rev !setup_norms in
  let allocs = List.map (fun r -> r.alloc) plain in
  let e2e =
    [ ("setup_s", Summary.median setup_samples, "s", setup_samples);
      ("rep_s", rep_s, "s", rep_samples);
      ("alloc_mb", Summary.median allocs, "MB", allocs);
      ("peak_heap_mb", peak, "MB", [ peak ]) ]
  in
  let counts =
    match List.rev staged with
    | r :: _ -> r.outcome.counts
    | [] -> (List.hd (List.rev plain)).outcome.counts
  in
  (* Normalized seconds (or MB) of one stage, median over staged reps. *)
  let stage_med s =
    ( Summary.median (List.map (fun r -> fst (List.assoc s r.stage_s) *. host) staged),
      Summary.median (List.map (fun r -> snd (List.assoc s r.stage_s)) staged) )
  in
  let staged_s = Summary.median (List.map norm staged) in
  let builds = List.map (fun b -> b *. host) !build_raws in
  let layers =
    if not traced then []
    else
      [ ("scenario.build_s", Summary.median builds, "s");
        ("trace.staged_s", staged_s, "s");
        ( "trace.overhead_pct",
          (* raw times: the two kinds of rep alternate, under the same host *)
          100.
          *. (Summary.median (List.map (fun r -> r.wall) staged)
              /. Summary.median (List.map (fun r -> r.wall) plain)
              -. 1.),
          "%" ) ]
      @ List.map
          (fun s ->
             ( s ^ ".time_pct",
               Summary.median
                 (List.map
                    (fun r -> 100. *. fst (List.assoc s r.stage_s) /. r.wall)
                    staged),
               "%" ))
          stages
      @ List.map
          (fun (name, group) ->
             ( name,
               List.fold_left (fun acc s -> acc +. snd (stage_med s)) 0. group,
               "MB" ))
          alloc_groups
      @ List.map (fun n -> (n, lookup n counts, "count")) count_names
      @ [ ( "dynamics.delta_share",
            ratio (lookup "dynamics.delta_steps" counts)
              (lookup "route_cache.hits" counts
               +. lookup "route_cache.misses" counts),
            "ratio" );
          ( "route_cache.hit_ratio",
            ratio (lookup "route_cache.hits" counts)
              (lookup "route_cache.hits" counts
               +. lookup "route_cache.misses" counts),
            "ratio" ) ]
  in
  let plain_counts = (List.hd (List.rev plain)).outcome.counts in
  let items =
    lookup "dynamics.updates" plain_counts +. lookup "serve.offers" plain_counts
  in
  let sample_med k =
    Summary.median
      (List.filter_map (fun r -> List.assoc_opt k r.outcome.samples) plain)
  in
  let per_item stage n scale unit =
    let c = lookup n counts in
    if staged = [] || c = 0. then []
    else [ (stage ^ "." ^ unit, scale *. fst (stage_med stage) /. c, unit) ]
  in
  let extra =
    [ ("wall_raw_s", Summary.median (List.map (fun r -> r.wall) plain), "s");
      ("host_factor", host, "ratio") ]
    @ (if items > 0. then [ ("updates_per_s", items /. rep_s, "1/s") ] else [])
    @ List.filter_map
        (fun k ->
           if List.exists (fun r -> List.mem_assoc k r.outcome.samples) plain
           then Some (k, sample_med k, "us")
           else None)
        [ "offer_p50_us"; "offer_p99_us" ]
    @ per_item "dynamics" "dynamics.updates" 1e6 "us_per_update"
    @ per_item "session_reset" "session_reset.pushed" 1e9 "ns_per_update"
    @ per_item "measurement.consume" "measurement.consumed" 1e9 "ns_per_update"
    @ per_item "window.apply" "ingest.released" 1e9 "ns_per_update"
    @ (if staged = [] then []
       else
         List.filter_map
           (fun s ->
              let v = fst (stage_med s) in
              if v > 0. then Some (s ^ ".s", v, "s") else None)
           stages)
  in
  { workload = w; setups = List.rev !setup_raws; host;
    calibrations = List.rev !calibrations;
    reps; correct = !failed = 0 && !issues = [];
    attempted = !attempted; failed = !failed; issues = !issues; e2e; layers;
    extra; spans = List.rev !spans }

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)

let num x = Qsjson.Num x
let str s = Qsjson.Str s

let metric_obj value unit = Qsjson.Obj [ ("value", num value); ("unit", str unit) ]

(* The contract line: end-to-end metrics untraced, per-layer traced.
   With several workloads the names carry a "<workload>." prefix. *)
let result_line ~traced results =
  let total f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  let prefix r name =
    match results with
    | [ _ ] -> name
    | _ -> r.workload.name ^ "." ^ name
  in
  let metrics =
    List.concat_map
      (fun r ->
         if traced then
           List.map (fun (n, v, u) -> (prefix r n, metric_obj v u)) r.layers
         else List.map (fun (n, v, u, _) -> (prefix r n, metric_obj v u)) r.e2e)
      results
  in
  Qsjson.Obj
    [ ("correct", Qsjson.Bool (List.for_all (fun r -> r.correct) results));
      ("attempted", num (total (fun r -> r.attempted)));
      ("failed", num (total (fun r -> r.failed)));
      ("metrics", Qsjson.Obj metrics) ]

let kind_name = function Warmup -> "warmup" | Timed -> "timed" | Staged -> "staged"

let result_json r =
  let triples l = Qsjson.Obj (List.map (fun (n, v, u) -> (n, metric_obj v u)) l) in
  Qsjson.Obj
    [ ("name", str r.workload.name);
      ("correct", Qsjson.Bool r.correct);
      ("attempted", num (float_of_int r.attempted));
      ("failed", num (float_of_int r.failed));
      ("issues", Qsjson.Arr (List.map str (List.filteri (fun i _ -> i < 20) r.issues)));
      ("setup_wall_s", Qsjson.Arr (List.map num r.setups));
      ("host_factor", num r.host);
      ("calibration_s", Qsjson.Arr (List.map num r.calibrations));
      ( "metrics",
        Qsjson.Obj
          (List.map
             (fun (n, v, u, samples) ->
                let q1, q3 = Summary.quartiles samples in
                ( n,
                  Qsjson.Obj
                    [ ("value", num v); ("unit", str u); ("q1", num q1);
                      ("q3", num q3); ("n", num (float_of_int (List.length samples)));
                      ("samples", Qsjson.Arr (List.map num samples)) ] ))
             r.e2e) );
      ("layers", triples r.layers);
      ("extra", triples r.extra);
      ( "counts",
        Qsjson.Obj
          (List.map (fun (n, v) -> (n, num v))
             (List.hd (List.rev r.reps)).outcome.counts) );
      ( "reps",
        Qsjson.Arr
          (List.map
             (fun rep ->
                Qsjson.Obj
                  ([ ("kind", str (kind_name rep.kind)); ("wall_s", num rep.wall);
                     ("normalized_s", num rep.normalized); ("alloc_mb", num rep.alloc) ]
                   @ List.map (fun (k, v) -> (k, num v)) rep.outcome.samples
                   @
                   if rep.kind = Staged then
                     [ ( "stages",
                         Qsjson.Obj
                           (List.filter_map
                              (fun (s, (t, a)) ->
                                 if t > 0. then
                                   Some (s, Qsjson.Obj [ ("s", num t); ("alloc_mb", num a) ])
                                 else None)
                              rep.stage_s) ) ]
                   else []))
             r.reps) );
      ( "spans",
        Qsjson.Arr
          (List.map
             (fun (sp : span) ->
                Qsjson.Obj
                  [ ("name", str sp.name); ("parent", str sp.parent);
                    ("run", num (float_of_int sp.run)); ("start", num sp.start);
                    ("stop", num sp.stop); ("alloc_mb", num sp.alloc_mb) ])
             r.spans) ) ]

let write_out results =
  let doc =
    Qsjson.Obj
      [ ("schema", str "qs-bench/1");
        ("commit", str !commit);
        ( "host",
          Qsjson.Obj
            [ ("nproc", num (float_of_int (Domain.recommended_domain_count ())));
              ("ocaml", str Sys.ocaml_version);
              ("os_type", str Sys.os_type);
              ("word_size", num (float_of_int Sys.word_size)) ] );
        ( "clocks",
          Qsjson.Obj
            [ ("wall", str "bechamel.monotonic_clock (CLOCK_MONOTONIC, ns)");
              ("host",
               str (Printf.sprintf "calibration kernel, %g s on the reference host"
                      calib_ref));
              ("alloc", str "Gc.allocated_bytes");
              ("heap", str "Gc.quick_stat top_heap_words") ] );
        ("seed", num (float_of_int !seed));
        ("seconds", num !seconds);
        ("trace", Qsjson.Bool (!trace = 1));
        ("jobs", num 1.);
        ("workloads", Qsjson.Arr (List.map result_json results)) ]
  in
  let oc = open_out_bin !out in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Qsjson.to_string doc);
      output_char oc '\n')

let print_result r =
  let timed = List.length (List.filter (fun rep -> rep.kind = Timed) r.reps) in
  let staged = List.length (List.filter (fun rep -> rep.kind = Staged) r.reps) in
  Printf.printf "%s (seed %d): %d set-ups, 1 warm-up + %d timed + %d staged reps, %s\n"
    r.workload.name !seed (List.length r.setups) timed staged
    (if r.correct then "correct"
     else Printf.sprintf "FAILED %d of %d" r.failed r.attempted);
  if not !smoke then begin
    List.iter (fun (n, v, u, _) -> Printf.printf "  %-36s %14.6g %s\n" n v u) r.e2e;
    List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) r.extra;
    List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.6g %s\n" n v u) r.layers
  end;
  List.iteri
    (fun i s -> if i < 10 then Printf.eprintf "qsbench: %s: %s\n" r.workload.name s)
    r.issues

(* ------------------------------------------------------------------ *)
(* Smoke check                                                          *)

(* Every workload at smoke size, one plain and one staged rep, then the
   two contract lines parsed back and checked against the names that
   BENCHMARK.json declares. *)
let smoke_check results =
  let doc = Qsjson.of_file !benchmark in
  let declared key =
    List.map (fun m -> Qsjson.to_str (Qsjson.field "name" m))
      (Qsjson.to_list (Qsjson.field key doc))
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let same key ours =
    let sort = List.sort String.compare in
    if not (List.equal String.equal (sort (declared key)) (sort ours)) then
      fail "%s in %s differs from the metrics qsbench computes" key !benchmark
  in
  same "end_to_end" (List.map fst end_to_end);
  same "per_layer" per_layer_names;
  let names_ok = List.map (fun (w : workload) -> w.name) (workloads ()) in
  List.iter
    (fun w ->
       let name = Qsjson.to_str (Qsjson.field "name" w) in
       if not (List.mem name names_ok) then fail "unknown workload %s declared" name)
    (Qsjson.to_list (Qsjson.field "workloads" doc));
  List.iter
    (fun r ->
       List.iter
         (fun (traced, key) ->
            let line = Qsjson.to_string (result_line ~traced [ r ]) in
            let parsed = Qsjson.parse line in
            if not (Qsjson.to_bool (Qsjson.field "correct" parsed)) then
              fail "%s: correct = false" r.workload.name;
            let metrics = Qsjson.field "metrics" parsed in
            List.iter
              (fun n ->
                 match Qsjson.member n metrics with
                 | Some m -> ignore (Qsjson.to_num (Qsjson.field "value" m))
                 | None -> fail "%s: metric %s missing" r.workload.name n)
              (declared key))
         [ (false, "end_to_end"); (true, "per_layer") ])
    results;
  List.iter (fun s -> Printf.eprintf "qsbench smoke: %s\n" s) (List.rev !failures);
  !failures = []

(* ------------------------------------------------------------------ *)

let spec =
  [ ("--workload", Arg.Set_string workload_arg, "NAME workload to run, or all (default all)");
    ("--seed", Arg.Set_int seed, "N seed of every random process (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 20)");
    ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s),
     " 1 interleaves staged reps and reports per-layer metrics");
    ("--out", Arg.Set_string out, "FILE write every rep and span as qs-bench/1 JSON");
    ("--commit", Arg.Set_string commit, "SHA source revision recorded in --out");
    ("--smoke", Arg.Set smoke, " tiny sizes, one rep each, validate the output");
    ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json that --smoke checks against") ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qsbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";
  if !smoke then begin
    trace := 1;
    if !benchmark = "" then (prerr_endline "qsbench: --smoke needs --benchmark FILE"; exit 2)
  end;
  let all = workloads () in
  let chosen =
    if String.equal !workload_arg "all" then all
    else List.filter (fun (w : workload) -> String.equal w.name !workload_arg) all
  in
  if chosen = [] then begin
    Printf.eprintf "qsbench: unknown workload %s (known: %s)\n" !workload_arg
      (String.concat ", " (List.map (fun (w : workload) -> w.name) all));
    exit 2
  end;
  if !seconds <= 0. || !seed < 0 then (prerr_endline "qsbench: bad --seconds or --seed"; exit 2);
  let results =
    List.map
      (fun w ->
         let r = run_workload w in
         print_result r;
         r)
      chosen
  in
  if !out <> "" then write_out results;
  let ok = List.for_all (fun r -> r.correct) results in
  if !smoke then begin
    let valid = smoke_check results in
    Printf.printf "qsbench smoke: %s\n" (if ok && valid then "ok" else "FAILED");
    exit (if ok && valid then 0 else 1)
  end;
  print_endline (Qsjson.to_string (result_line ~traced:(!trace = 1) results));
  exit (if ok then 0 else 1)

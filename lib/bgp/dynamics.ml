type config = {
  duration : float;
  base_churn_rate : float;
  mean_outage : float;
  global_link_events : int;
  mean_global_outage : float;
  resets_per_session : float;
  pathological_prefixes : int;
  pathological_multiplier : float;
  delta : bool;
  session_churn : Churn.config option;
}

let day = 86_400.

let default_config =
  { duration = 30. *. day;
    base_churn_rate = 1.5;
    mean_outage = 2800.;
    global_link_events = 12;
    mean_global_outage = 1800.;
    resets_per_session = 2.5;
    pathological_prefixes = 2;
    pathological_multiplier = 2600.;
    delta = true;
    session_churn = None }

(* Calibration constants, fixed for every run. *)

(* Pareto shape and scale of per-prefix churn-rate multipliers: a heavy
   tail, so a few prefixes flap far more than the median. *)
let churn_alpha = 1.5
let churn_xmin = 0.5

(* Extra multiplier per unit of an origin's [hosting_weight]: datacenters
   churn harder, the generative assumption behind Figure 3's gap. *)
let hosting_churn_factor = 1.5

(* Cap on the combined (Pareto x hosting) multiplier. *)
let max_rate_multiplier = 400.

(* Seconds a session-reset table replay takes. *)
let reset_transfer_time = 45.

(* Chance that a path change shows path-exploration transients first. *)
let transient_prob = 0.35

(* Spacing between a session's successive transients, s (BGP's MRAI). *)
let mrai = 28.

(* A changed path settles within [2 s, 2 s + this] of its event. *)
let convergence_delay_max = 40.

(* Bound on the customers, and on the prefixes, an origin-side event
   recomputes. *)
let max_affected_per_event = 40

let short_config =
  { default_config with
    duration = 2. *. day;
    base_churn_rate = 0.4;
    global_link_events = 2;
    resets_per_session = 0.5;
    pathological_prefixes = 1;
    pathological_multiplier = 150. }

type world = {
  graph : As_graph.t;
  indexed : As_graph.Indexed.t;
  addressing : Addressing.t;
  collectors : Collector.t list;
}

let make_world graph addressing collectors =
  { graph; indexed = As_graph.Indexed.of_graph graph; addressing; collectors }

type initial = Route.t Prefix.Map.t Update.Session_map.t

(* Registry mirrors of [stats], bulk-added once per [run] so a process
   that drives several dynamics runs accumulates across them.  The
   regression suite pins these against the returned record. *)
let m_churn = Metrics.counter ~help:"churn events applied" "dynamics.churn_events"
let m_updates = Metrics.counter ~help:"updates emitted" "dynamics.updates_emitted"
let m_ann = Metrics.counter ~help:"announcements emitted" "dynamics.announces"
let m_wd = Metrics.counter ~help:"withdrawals emitted" "dynamics.withdraws"
let m_full_recomp =
  Metrics.counter ~help:"full route recomputations" "dynamics.full_recomputations"
let m_delta_steps =
  Metrics.counter ~help:"incremental delta repairs" "dynamics.delta_steps"
let m_delta_stop =
  Metrics.counter ~help:"delta link repairs proven no-ops"
    "dynamics.delta_stop_early"
let m_delta_frontier =
  Metrics.histogram ~help:"ASes touched per delta step"
    ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                2048.; 4096. |]
    "dynamics.delta_frontier"
let m_dropped = Metrics.counter ~help:"updates dropped past horizon" "dynamics.post_horizon_dropped"

type stats = {
  churn_events : int;
  resets_injected : (Update.session_id * float * float) list;
  updates_emitted : int;
  announces : int;
  withdraws : int;
  full_recomputations : int;
  delta_steps : int;
  delta_stop_early : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  post_horizon_dropped : int;
  final_failed : int;
}

type perturbation =
  | Restore_links of (Asn.t * Asn.t) list
  | Set_prepend of int * int  (* prefix index, value to restore *)

type event =
  | Churn of int                               (* prefix index *)
  | Revert of perturbation * int list          (* affected prefix indices *)
  | Global_fail
  | Reset of int                               (* session index *)
  | Trace_down of int                          (* trace-churn entity index *)
  | Trace_up of int

type state = {
  cfg : config;
  w : world;
  rng : Rng.t;
  sessions : Collector.session array;
  pfxs : Prefix.t array;
  origins : Asn.t array;
  prepend : int array;
  current : Route.t option array array;  (* .(pfx).(session) *)
  previous : Route.t option array array; (* route before the last change *)
  pfx_of_origin : int list Asn.Table.t;
  core_links : (Asn.t * Asn.t) array;
  mutable failed : Link_set.t;
  delta_scratch : Propagate.Delta.scratch;
  workspace : Propagate.Workspace.t;  (* the full-engine arm's scratch *)
  peer_ids : int array;    (* session index -> peer's graph id *)
  vis_threshold : int array;
      (* session index -> minimum Propagate class code its feed shows *)
  origin_key : int array;  (* prefix index -> origin's graph id *)
  ann_cache : Announcement.t list array;
      (* prefix index -> its current singleton announcement list;
         rebuilt lazily when the prepend moves *)
  seen_version : int array;
      (* prefix index -> {!Propagate.Delta.version} of the state
         [current.(p)] was last derived from; 0 = never. When a
         recompute lands on the same version, no session view can have
         changed and the whole per-session scan is skipped. *)
  states : Propagate.Delta.state option array;
      (* origin graph id -> its retained state, created on first request
         and resident for the whole run. Keyed per {e origin}, not per
         prefix: the routes never depend on the prefix, so all prefixes
         of one origin share a single retained fixed point
         ({!Propagate.Delta.update} swaps the announcement metadata in
         O(1)). *)
  trace_entities : Asn.t array;
      (* trace-churn entity index -> origin AS; distinct origins sorted by
         [Asn.compare], empty unless [cfg.session_churn] is set *)
  trace_revert : (perturbation * int list) option array;
      (* entity -> what its pending Trace_up undoes: the links its last
         Trace_down actually failed (links some other process had already
         failed are excluded: their own restore owns them) and the
         prefixes it recomputed *)
  events : event Pqueue.t;
  outq : Update.t Pqueue.t;
  emit : Update.t -> unit;
  mutable n_churn : int;
  mutable n_updates : int;
  mutable n_ann : int;
  mutable n_wd : int;
  mutable n_full_recomp : int;
  mutable n_delta_steps : int;
  mutable n_delta_stop : int;
  mutable n_dropped : int;
  mutable resets : (Update.session_id * float * float) list;
}

(* ---- emission ----------------------------------------------------- *)

let drain st limit =
  List.iter
    (fun (_, u) ->
       st.emit u;
       st.n_updates <- st.n_updates + 1;
       if Update.is_announce u then st.n_ann <- st.n_ann + 1
       else st.n_wd <- st.n_wd + 1)
    (Pqueue.pop_until st.outq limit)

let schedule_update st time session kind =
  Pqueue.push st.outq time { Update.time; session; kind }

(* ---- route computation -------------------------------------------- *)

(* The singleton announcement list for [p]'s current configuration,
   rebuilt only when [p]'s prepend moved since the last query: every
   event queries it once per affected prefix, and the steady state is
   an unchanged prepend. *)
let announcement st p =
  match st.ann_cache.(p) with
  | [ a ] when a.Announcement.prepend = st.prepend.(p) -> st.ann_cache.(p)
  | _ ->
      let anns =
        [ Announcement.originate st.origins.(p) st.pfxs.(p)
          |> Announcement.with_prepend st.prepend.(p) ]
      in
      st.ann_cache.(p) <- anns;
      anns

(* The routing outcome for prefix [p] in the current (prepend, failed)
   configuration, with a version stamp for it.

   With [cfg.delta], each {e origin} keeps a {!Propagate.Delta.state}
   whose update diffs the configuration against the last one it applied
   and repairs only the dirty region — O(affected) instead of O(world),
   and O(1) when the flapped link carries no selected route. Because
   routing is prefix-agnostic, one state serves every prefix of an
   origin: an event that touches dozens of co-originated prefixes pays
   for one repair, and each further prefix is an O(1) metadata swap.
   The stamp is the state's version.

   Without it, every request is a plain {!Propagate.compute}: the
   reference arm of [check --suite delta]. Its stamp is negative and
   fresh per request, so it never matches a [seen_version] and no
   per-session scan is skipped.

   [n_full_recomp] counts full computes (cold starts, bails and that
   reference arm), [n_delta_steps] incremental repairs. The outcome
   aliases a delta state or the workspace, which the next request may
   overwrite; every caller consumes it first. *)
let outcome_for st p =
  if not st.cfg.delta then begin
    st.n_full_recomp <- st.n_full_recomp + 1;
    ( Propagate.compute st.w.indexed ~workspace:st.workspace ~failed:st.failed
        (announcement st p),
      -st.n_full_recomp )
  end
  else begin
    let o = st.origin_key.(p) in
    let ds =
      match st.states.(o) with
      | Some ds -> ds
      | None ->
          let ds = Propagate.Delta.create st.w.indexed in
          st.states.(o) <- Some ds;
          ds
    in
    let outcome, kind =
      Propagate.Delta.update ds st.delta_scratch ~failed:st.failed
        (announcement st p)
    in
    (match kind with
     | Propagate.Delta.Full_rebuild -> st.n_full_recomp <- st.n_full_recomp + 1
     | Propagate.Delta.Steps { frontier; stop_early; _ } ->
         st.n_delta_steps <- st.n_delta_steps + 1;
         st.n_delta_stop <- st.n_delta_stop + stop_early;
         Metrics.observe m_delta_frontier (float_of_int frontier));
    (outcome, Propagate.Delta.version ds)
  end

(* Recompute routes for the given prefixes and emit the resulting session
   transitions (with optional convergence transients). *)
let recompute st now affected =
  List.iter
    (fun p ->
       let outcome, ver = outcome_for st p in
       (* If the delta state's version is the one [current.(p)] was
          derived from, the repair changed nothing any session can see:
          skip the per-session scan outright (no route is compared, no
          RNG is drawn — exactly what an all-unchanged scan would do). *)
       if st.seen_version.(p) <> ver then begin
       Array.iteri
         (fun s_idx (session : Collector.session) ->
            let peer_id = st.peer_ids.(s_idx) in
            let vis =
              Propagate.class_code_at_id outcome peer_id
              >= st.vis_threshold.(s_idx)
            in
            let old = st.current.(p).(s_idx) in
            (* Decide "changed" without materializing the new route: the
               steady state is an unchanged session, and building a Route
               per (prefix, session) per event dominates the loop. *)
            let changed =
              match old with
              | None -> vis
              | Some r ->
                  not (vis && Propagate.route_matches_id outcome peer_id r)
            in
            if changed then begin
              let next =
                if vis then Propagate.route_at_id outcome peer_id else None
              in
              let delay = 2. +. Rng.float st.rng convergence_delay_max in
              let id = session.Collector.id in
              (match next with
               | None -> schedule_update st (now +. delay) id (Update.Withdraw st.pfxs.(p))
               | Some route ->
                   let base = now +. delay in
                   let n_transients =
                     if Rng.float st.rng 1.0 < transient_prob then begin
                       (* Path exploration: the peer walks through alternate
                          candidates before settling on [route]. *)
                       let peer = id.Update.peer in
                       let cands = Propagate.candidates_at outcome peer in
                       let transients =
                         cands
                         |> List.filter (fun (c : Route.t) ->
                             not (List.equal Asn.equal (peer :: c.Route.as_path)
                                    route.Route.as_path))
                         |> (fun l -> List.filteri (fun i _ -> i < 2) l)
                       in
                       List.iteri
                         (fun i (c : Route.t) ->
                            let path = peer :: c.Route.as_path in
                            schedule_update st
                              (base +. (float_of_int i *. mrai))
                              id
                              (Update.Announce (Route.make st.pfxs.(p) path)))
                         transients;
                       List.length transients
                     end
                     else 0
                   in
                   schedule_update st
                     (base +. (float_of_int n_transients *. mrai))
                     id (Update.Announce route));
              st.previous.(p).(s_idx) <- old;
              st.current.(p).(s_idx) <- next
            end)
         st.sessions;
       st.seen_version.(p) <- ver
       end)
    affected

(* ---- event handlers ------------------------------------------------ *)

let prefixes_of_origin st o =
  Option.value ~default:[] (Asn.Table.find_opt st.pfx_of_origin o)

let cap l =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take max_affected_per_event l

(* The prefixes an event at AS [x] can deflect: [x]'s own, its first
   [max_affected_per_event] customers', and [also], capped. The sort in
   [List.sort_uniq] makes only the set of inputs matter. *)
let cone_affected ?(also = []) st x =
  cap
    (List.sort_uniq Int.compare
       (also @ prefixes_of_origin st x
        @ List.concat_map (prefixes_of_origin st)
            (cap (As_graph.customers st.w.graph x))))

let fail_link st now ~mean_outage a b affected =
  if Link_set.mem st.w.indexed a b st.failed then ()
  else begin
    st.failed <- Link_set.add st.w.indexed a b st.failed;
    let d = Rng.exponential st.rng (1. /. mean_outage) in
    Pqueue.push st.events (now +. d) (Revert (Restore_links [ (a, b) ], affected));
    recompute st now affected
  end

let handle_churn st now p =
  st.n_churn <- st.n_churn + 1;
  let o = st.origins.(p) in
  let g = st.w.graph in
  let mean_outage = st.cfg.mean_outage in
  let roll = Rng.float st.rng 1.0 in
  if roll < 0.5 then begin
    (* Re-homing flap: one of the origin's uplinks goes down. *)
    let uplinks = As_graph.providers g o @ As_graph.peers g o in
    match uplinks with
    | [] -> ()
    | _ ->
        let up = Rng.pick_list st.rng uplinks in
        fail_link st now ~mean_outage o up (cone_affected st o)
  end
  else if roll < 0.8 then begin
    (* Upstream flap: a link one AS up from the origin flaps. *)
    match As_graph.providers g o with
    | [] -> ()
    | provs ->
        let pr = Rng.pick_list st.rng provs in
        let candidates = As_graph.providers g pr @ As_graph.peers g pr in
        (match candidates with
         | [] -> ()
         | _ ->
             let x = Rng.pick_list st.rng candidates in
             fail_link st now ~mean_outage pr x
               (cone_affected ~also:(prefixes_of_origin st o) st pr))
  end
  else begin
    (* Traffic-engineering prepend toggle. *)
    let old = st.prepend.(p) in
    st.prepend.(p) <- (if old = 0 then 2 else 0);
    let d = Rng.exponential st.rng (1. /. mean_outage) in
    Pqueue.push st.events (now +. d) (Revert (Set_prepend (p, old), [ p ]));
    recompute st now [ p ]
  end

let apply_perturbation st = function
  | Restore_links links ->
      let remove s (a, b) = Link_set.remove st.w.indexed a b s in
      st.failed <- List.fold_left remove st.failed links
  | Set_prepend (p, v) -> st.prepend.(p) <- v

let handle_revert st now perturbation affected =
  apply_perturbation st perturbation;
  recompute st now affected

(* Prefixes whose currently-recorded path at some session crosses link
   (a, b): the only ones a core-link failure can deflect. *)
let prefixes_using_link st a b =
  let uses route =
    let rec consecutive = function
      | x :: (y :: _ as rest) ->
          (Asn.equal x a && Asn.equal y b)
          || (Asn.equal x b && Asn.equal y a)
          || consecutive rest
      | [ _ ] | [] -> false
    in
    consecutive route.Route.as_path
  in
  let out = ref [] in
  Array.iteri
    (fun p per_session ->
       if Array.exists (function Some r -> uses r | None -> false) per_session
       then out := p :: !out)
    st.current;
  !out

let handle_global_fail st now =
  if Array.length st.core_links > 0 then begin
    let a, b = Rng.pick st.rng st.core_links in
    fail_link st now ~mean_outage:st.cfg.mean_global_outage a b
      (prefixes_using_link st a b)
  end

(* Trace-shaped session churn ([cfg.session_churn]): entity [e]'s origin
   AS drops off the network — every uplink it has goes down at once — and
   comes back when the generator's matching Up event lands. Only links
   this handler itself failed are recorded and later restored, so
   Down/Up pairs compose with Churn/Global perturbations without
   double-failing or double-restoring a link. *)
let handle_trace_down st now e =
  st.n_churn <- st.n_churn + 1;
  let o = st.trace_entities.(e) in
  let g = st.w.graph in
  let uplinks =
    List.filter
      (fun up -> not (Link_set.mem st.w.indexed o up st.failed))
      (As_graph.providers g o @ As_graph.peers g o)
  in
  if uplinks <> [] then begin
    let add s up = Link_set.add st.w.indexed o up s in
    st.failed <- List.fold_left add st.failed uplinks;
    let affected = cone_affected st o in
    st.trace_revert.(e) <-
      Some (Restore_links (List.map (fun up -> (o, up)) uplinks), affected);
    recompute st now affected
  end

(* The revert entity [e]'s Up event owes, handed out once. *)
let take_trace_revert st e =
  let r = st.trace_revert.(e) in
  st.trace_revert.(e) <- None;
  r

let handle_reset st now s_idx =
  let session = st.sessions.(s_idx) in
  let id = session.Collector.id in
  let finish = now +. reset_transfer_time in
  st.resets <- (id, now, finish) :: st.resets;
  Array.iteri
    (fun p per_session ->
       match per_session.(s_idx) with
       | None -> ()
       | Some route ->
           let at = now +. Rng.float st.rng reset_transfer_time in
           (* A slice of the table is replayed through a stale path first:
              the peer itself is still converging during the transfer. *)
           (match st.previous.(p).(s_idx) with
            | Some stale when Rng.float st.rng 1.0 < 0.25
                              && not (Route.equal stale route) ->
                schedule_update st at id (Update.Announce stale);
                schedule_update st (at +. 1.0) id (Update.Announce route)
            | Some _ | None -> schedule_update st at id (Update.Announce route)))
    st.current

(* ---- setup and main loop ------------------------------------------- *)

let poisson_times rng rate duration =
  if rate <= 0. then []
  else begin
    let rec loop t acc =
      let t = t +. Rng.exponential rng (rate /. duration) in
      if t >= duration then List.rev acc else loop t (t :: acc)
    in
    loop 0. []
  end

let run ~rng ?trace_rng ?(on_initial = fun _ -> ()) cfg w ~emit =
  Span.with_ ~name:"dynamics.run" @@ fun () ->
  let sessions = Array.of_list (Collector.all_sessions w.collectors) in
  let announced = Array.of_list (Addressing.announced w.addressing) in
  let pfxs = Array.map fst announced in
  let origins = Array.map snd announced in
  let n_pfx = Array.length pfxs in
  let pfx_of_origin = Asn.Table.create 1024 in
  Array.iteri
    (fun i o ->
       let cur = Option.value ~default:[] (Asn.Table.find_opt pfx_of_origin o) in
       Asn.Table.replace pfx_of_origin o (i :: cur))
    origins;
  let rate_multiplier =
    Array.map
      (fun o ->
         let hosting = (As_graph.info w.graph o).As_graph.hosting_weight in
         let m =
           Rng.pareto rng ~alpha:churn_alpha ~xmin:churn_xmin
           *. (1. +. (hosting_churn_factor *. hosting))
         in
         Float.min m max_rate_multiplier)
      origins
  in
  (* A couple of pathological super-flappers among hosting-AS prefixes —
     the paper's 178.239.176.0/20 anecdote (2000x the median churn). *)
  if cfg.pathological_prefixes > 0 && n_pfx > 0 then begin
    let hosting_idx =
      Array.to_list (Array.mapi (fun i o -> (i, o)) origins)
      |> List.filter (fun (_, o) ->
          (As_graph.info w.graph o).As_graph.hosting_weight > 0.)
      |> List.map fst
      |> Array.of_list
    in
    let pool = if Array.length hosting_idx > 0 then hosting_idx
               else Array.init n_pfx (fun i -> i) in
    for _ = 1 to cfg.pathological_prefixes do
      let i = Rng.pick rng pool in
      rate_multiplier.(i) <-
        cfg.pathological_multiplier *. (0.75 +. Rng.float rng 0.5)
    done
  end;
  let core_links = As_graph.core_links w.graph in
  let trace_entities =
    match cfg.session_churn with
    | None -> [||]
    | Some _ ->
        Array.to_list origins |> List.sort_uniq Asn.compare |> Array.of_list
  in
  let st =
    { cfg; w; rng; sessions; pfxs; origins;
      prepend = Array.make n_pfx 0;
      current = Array.make_matrix n_pfx (Array.length sessions) None;
      previous = Array.make_matrix n_pfx (Array.length sessions) None;
      pfx_of_origin; core_links;
      failed = Link_set.empty;
      delta_scratch = Propagate.Delta.create_scratch ();
      workspace = Propagate.Workspace.create ();
      peer_ids =
        Array.map
          (fun (s : Collector.session) ->
             As_graph.Indexed.id_of_asn w.indexed s.Collector.id.Update.peer)
          sessions;
      vis_threshold =
        Array.map
          (fun (s : Collector.session) ->
             match s.Collector.feed with
             | Collector.Full -> 0
             | Collector.Customer_and_peer -> 1
             | Collector.Customer_only -> 2)
          sessions;
      origin_key =
        Array.map (As_graph.Indexed.id_of_asn w.indexed) origins;
      ann_cache = Array.make n_pfx [];
      seen_version = Array.make n_pfx 0;
      states = Array.make (As_graph.Indexed.n w.indexed) None;
      trace_entities;
      trace_revert = Array.make (Array.length trace_entities) None;
      events = Pqueue.create ();
      outq = Pqueue.create ();
      emit;
      n_churn = 0; n_updates = 0; n_ann = 0; n_wd = 0;
      n_full_recomp = 0; n_delta_steps = 0; n_delta_stop = 0;
      n_dropped = 0;
      resets = [] }
  in
  (* Time 0: full routing computation, no emissions. *)
  for p = 0 to n_pfx - 1 do
    let outcome, ver = outcome_for st p in
    st.seen_version.(p) <- ver;
    for s_idx = 0 to Array.length sessions - 1 do
      let peer_id = st.peer_ids.(s_idx) in
      if Propagate.class_code_at_id outcome peer_id >= st.vis_threshold.(s_idx)
      then
        st.current.(p).(s_idx) <- Propagate.route_at_id outcome peer_id
    done
  done;
  (* The time-0 tables, read off [current]: one linear [filter_map] per
     session over a prefix -> indices map built once, instead of a
     path-copying [add] per visible (session, prefix). Where a prefix is
     announced twice, the latest announcement visible at the session
     wins. *)
  let index = ref Prefix.Map.empty in
  Array.iteri
    (fun p pfx ->
       index :=
         Prefix.Map.update pfx
           (fun ps -> Some (p :: Option.value ~default:[] ps))
           !index)
    pfxs;
  let initial = ref Update.Session_map.empty in
  Array.iteri
    (fun s_idx (session : Collector.session) ->
       let table =
         Prefix.Map.filter_map
           (fun _ ps -> List.find_map (fun p -> st.current.(p).(s_idx)) ps)
           !index
       in
       if not (Prefix.Map.is_empty table) then
         initial :=
           Update.Session_map.update session.Collector.id
             (function
               | None -> Some table
               | Some earlier ->
                   Some (Prefix.Map.union (fun _ _ r -> Some r) earlier table))
             !initial)
    sessions;
  on_initial !initial;
  (* Pre-generate the independent event processes. *)
  for p = 0 to n_pfx - 1 do
    let rate = cfg.base_churn_rate *. rate_multiplier.(p) in
    List.iter
      (fun t -> Pqueue.push st.events t (Churn p))
      (poisson_times rng rate cfg.duration)
  done;
  for _ = 1 to cfg.global_link_events do
    Pqueue.push st.events (Rng.float rng cfg.duration) Global_fail
  done;
  Array.iteri
    (fun s_idx _ ->
       List.iter
         (fun t -> Pqueue.push st.events t (Reset s_idx))
         (poisson_times rng cfg.resets_per_session cfg.duration))
    sessions;
  (* Trace-shaped session churn rides its own stream ([trace_rng],
     normally the scenario's "trace-churn" stream; a split of [rng]
     otherwise), so switching a scenario's trace model never re-times the
     Poisson processes above. *)
  (match cfg.session_churn with
   | None -> ()
   | Some chcfg when Array.length trace_entities > 0 ->
       let trng =
         match trace_rng with Some r -> r | None -> Rng.split rng
       in
       List.iter
         (fun (ev : Churn.event) ->
            let k =
              match ev.Churn.action with
              | Churn.Down -> Trace_down ev.Churn.entity
              | Churn.Up -> Trace_up ev.Churn.entity
            in
            Pqueue.push st.events ev.Churn.time k)
         (Churn.generate ~rng:trng chcfg
            ~entities:(Array.length trace_entities) ~duration:cfg.duration)
   | Some _ -> ());
  (* Main loop. *)
  let rec loop () =
    match Pqueue.pop st.events with
    | None -> ()
    | Some (now, ev) ->
        drain st (Float.min now cfg.duration);
        if now <= cfg.duration then begin
          (match ev with
           | Churn p -> handle_churn st now p
           | Revert (perturbation, affected) -> handle_revert st now perturbation affected
           | Global_fail -> handle_global_fail st now
           | Reset s_idx -> handle_reset st now s_idx
           | Trace_down e -> handle_trace_down st now e
           | Trace_up e ->
               Option.iter
                 (fun (perturbation, affected) ->
                    handle_revert st now perturbation affected)
                 (take_trace_revert st e));
          loop ()
        end
        else begin
          (* Past the horizon nothing is emitted or recomputed, but
             revert-type events still land so every transient perturbation
             returns the state to baseline: [failed] ends empty and
             [prepend] at its configured values. *)
          (match ev with
           | Revert (perturbation, _) -> apply_perturbation st perturbation
           | Trace_up e ->
               Option.iter
                 (fun (perturbation, _) -> apply_perturbation st perturbation)
                 (take_trace_revert st e)
           | Churn _ | Global_fail | Reset _ | Trace_down _ -> ());
          loop ()
        end
  in
  loop ();
  (* The out-queue may still hold updates scheduled past the horizon
     (convergence delays and reset replays near the end of the run push
     past it). Emit only up to [duration]; count the rest as dropped. *)
  drain st cfg.duration;
  st.n_dropped <- st.n_dropped + Pqueue.length st.outq;
  Metrics.add m_churn st.n_churn;
  Metrics.add m_updates st.n_updates;
  Metrics.add m_ann st.n_ann;
  Metrics.add m_wd st.n_wd;
  Metrics.add m_full_recomp st.n_full_recomp;
  Metrics.add m_delta_steps st.n_delta_steps;
  Metrics.add m_delta_stop st.n_delta_stop;
  Metrics.add m_dropped st.n_dropped;
  ( !initial,
    { churn_events = st.n_churn;
      resets_injected = List.rev st.resets;
      updates_emitted = st.n_updates;
      announces = st.n_ann;
      withdraws = st.n_wd;
      full_recomputations = st.n_full_recomp;
      delta_steps = st.n_delta_steps;
      delta_stop_early = st.n_delta_stop;
      cache_hits = 0;
      cache_misses = st.n_full_recomp + st.n_delta_steps;
      cache_evictions = 0;
      post_horizon_dropped = st.n_dropped;
      final_failed = Link_set.cardinal st.failed } )

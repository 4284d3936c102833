type policy = Default | As_aware | Short_path

let policy_name = function
  | Default -> "default (bandwidth-weighted)"
  | As_aware -> "AS-aware (avoid common ASes)"
  | Short_path -> "short-AS-PATH preference"

type selection_eval = {
  policy : policy;
  trials : int;
  common_as_rate : float;
  mean_exposed_ases : int;
  model_compromise : float;
}

(* The AS set of the data-plane walk from [from_as] towards [ann]'s prefix
   under the given failure state. *)
let segment_ases indexed ?failed ~from_as ann =
  Propagate.forwarding_set (Propagate.compute indexed ?failed [ ann ]) from_as

(* Entry-segment exposure of a candidate guard: ASes on the client->guard
   walk in the healthy state plus under each failure variant — the
   "path dynamics taken into account" knowledge of §5. *)
let entry_exposure indexed ~variants ~client ann =
  let base = segment_ases indexed ~from_as:client ann in
  List.fold_left
    (fun acc failed ->
       Asn.Set.union acc (segment_ases indexed ~failed ~from_as:client ann))
    base variants

let selection ~rng ?(n_trials = 30) ?(f = 0.05) ?(candidates = 12)
    ?(failure_variants = 3) (scenario : Scenario.t) =
  let indexed = scenario.Scenario.indexed in
  let links = As_graph.core_links scenario.Scenario.graph in
  let results = Hashtbl.create 4 in
  (* per policy: (#trials with a common AS, sum of entry ASes, sum of
     P[some common AS is malicious], #trials) *)
  let add policy n_common exposed =
    let c, e, p, n =
      Option.value ~default:(0, 0, 0., 0) (Hashtbl.find_opt results policy)
    in
    Hashtbl.replace results policy
      ( (c + if n_common > 0 then 1 else 0),
        e + exposed,
        p +. Anonymity.compromise_probability ~f ~x:n_common,
        n + 1 )
  in
  for _ = 1 to n_trials do
    let client = Scenario.random_client_as ~rng scenario in
    let destination = Scenario.random_client_as ~rng scenario in
    let exit = Path_selection.pick_exit ~rng scenario.Scenario.consensus in
    let variants =
      List.init failure_variants (fun _ ->
          let a, b = Rng.pick rng links in
          Link_set.of_list indexed [ (a, b) ])
    in
    (* Exit segment: ASes between the exit relay's AS and the destination. *)
    let dest_ann =
      match Addressing.prefixes_of scenario.Scenario.addressing destination with
      | p :: _ -> Some (Announcement.originate destination p)
      | [] -> None
    in
    match dest_ann with
    | None -> ()
    | Some dest_ann ->
        let exit_segment =
          entry_exposure indexed ~variants ~client:exit.Relay.asn dest_ann
        in
        (* Candidate guards with their entry-segment exposure. *)
        let cands =
          List.init candidates (fun _ ->
              Path_selection.pick_guard ~rng scenario.Scenario.consensus)
          |> List.filter_map (fun g ->
              match Scenario.guard_announcement scenario g with
              | Some ann ->
                  let exposure = entry_exposure indexed ~variants ~client ann in
                  let static = segment_ases indexed ~from_as:client ann in
                  if Asn.Set.is_empty exposure then None
                  else Some (g, exposure, Asn.Set.cardinal static)
              | None -> None)
        in
        (match cands with
         | [] -> ()
         | (first, first_exposure, _) :: _ ->
             let eval policy =
               let _, exposure =
                 match policy with
                 | Default -> (first, first_exposure)
                 | As_aware ->
                     let score (_, exp_, _) =
                       Asn.Set.cardinal (Asn.Set.inter exp_ exit_segment)
                     in
                     let best =
                       List.fold_left
                         (fun acc c -> if score c < score acc then c else acc)
                         (List.hd cands) cands
                     in
                     let g, e, _ = best in
                     (g, e)
                 | Short_path ->
                     let best =
                       List.fold_left
                         (fun acc ((_, _, len) as c) ->
                            let _, _, best_len = acc in
                            if len < best_len then c else acc)
                         (List.hd cands) cands
                     in
                     let g, e, _ = best in
                     (g, e)
               in
               let n_common =
                 Asn.Set.cardinal (Asn.Set.inter exposure exit_segment)
               in
               add policy n_common (Asn.Set.cardinal exposure)
             in
             List.iter eval [ Default; As_aware; Short_path ])
  done;
  List.map
    (fun policy ->
       let c, e, p, n =
         Option.value ~default:(0, 0, 0., 0) (Hashtbl.find_opt results policy)
       in
       let n_f = float_of_int (max 1 n) in
       let mean_exposed = if n = 0 then 0 else e / n in
       { policy;
         trials = n;
         common_as_rate = float_of_int c /. n_f;
         mean_exposed_ases = mean_exposed;
         (* mean P[a common AS is malicious]: the end-to-end timing attack
            needs one AS on BOTH segments *)
         model_compromise = p /. n_f })
    [ Default; As_aware; Short_path ]

type stealth_eval = {
  s_policy : policy;
  s_trials : int;
  captured_rate : float;
}

let stealth_resilience ~rng ?(n_trials = 30) ?(radius = 3) ?(candidates = 12)
    (scenario : Scenario.t) =
  let indexed = scenario.Scenario.indexed in
  let counts = Hashtbl.create 2 in
  let add policy captured =
    let c, n = Option.value ~default:(0, 0) (Hashtbl.find_opt counts policy) in
    Hashtbl.replace counts policy ((c + if captured then 1 else 0), n + 1)
  in
  let ases = Array.of_list (As_graph.ases scenario.Scenario.graph) in
  for _ = 1 to n_trials do
    let client = Scenario.random_client_as ~rng scenario in
    let cands =
      List.init candidates (fun _ ->
          Path_selection.pick_guard ~rng scenario.Scenario.consensus)
      |> List.filter_map (fun g ->
          match Scenario.guard_announcement scenario g with
          | Some ann ->
              let outcome = Propagate.compute indexed [ ann ] in
              Option.map
                (fun walk -> (g, ann, List.length walk))
                (Propagate.forwarding_path outcome client)
          | None -> None)
    in
    match cands with
    | [] -> ()
    | (g0, ann0, _) :: _ ->
        let short =
          List.fold_left
            (fun ((_, _, bl) as acc) ((_, _, l) as c) -> if l < bl then c else acc)
            (List.hd cands) cands
        in
        let g_short, ann_short, _ = short in
        let attacker =
          let rec pick attempts =
            if attempts > 100 then None
            else
              let a = Rng.pick rng ases in
              if Asn.equal a ann0.Announcement.origin
                 || Asn.equal a ann_short.Announcement.origin
                 || Asn.equal a client
              then pick (attempts + 1)
              else Some a
          in
          pick 0
        in
        (match attacker with
         | None -> ()
         | Some attacker ->
             let capture ann _g =
               let atk =
                 Community_attack.run indexed ~victim:ann ~attacker ~radius
                   ~monitors:[] ()
               in
               Interception.observes atk.Community_attack.interception client
             in
             add Default (capture ann0 g0);
             add Short_path (capture ann_short g_short))
  done;
  List.map
    (fun policy ->
       let c, n = Option.value ~default:(0, 0) (Hashtbl.find_opt counts policy) in
       { s_policy = policy;
         s_trials = n;
         captured_rate = float_of_int c /. float_of_int (max 1 n) })
    [ Default; Short_path ]

type monitoring_eval = {
  n_attacks : int;
  detected : int;
  recall : float;
  alarms_total : int;
  alarms_on_attacked : int;
  precision : float;
  mean_detection_delay : float;
}

(* Inject attacks in the second half so the monitor has a baseline. The
   helper is shared with the [Qs_serve] replay/verify path, which needs
   the {e same} injected update set for its batch and streaming arms. *)
let inject_hijacks ~rng ?(n_attacks = 6) ~duration (scenario : Scenario.t) =
  let indexed = scenario.Scenario.indexed in
  let sessions = Scenario.sessions scenario in
  let tor_entries = Tor_prefix.entries scenario.Scenario.tor_prefixes in
  let entries = Array.of_list tor_entries in
  let ases = Array.of_list (As_graph.ases scenario.Scenario.graph) in
  let attacks =
    List.init n_attacks (fun _ ->
        let e = Rng.pick rng entries in
        let victim = Announcement.originate e.Tor_prefix.origin e.Tor_prefix.prefix in
        let attacker =
          let rec pick n =
            if n > 100 then e.Tor_prefix.origin
            else
              let a = Rng.pick rng ases in
              if Asn.equal a e.Tor_prefix.origin then pick (n + 1) else a
          in
          pick 0
        in
        let time = (duration /. 2.) +. Rng.float rng (duration /. 2. -. 3600.) in
        (victim, attacker, time))
  in
  let extra_updates =
    List.concat_map
      (fun (victim, attacker, time) ->
         let h = Hijack.same_prefix indexed ~victim ~attacker () in
         List.filter_map
           (fun (s : Collector.session) ->
              let peer = s.Collector.id.Update.peer in
              match Propagate.winning_announcement h.Hijack.outcome peer with
              | Some 1 -> begin
                  match Propagate.route_at h.Hijack.outcome peer with
                  | Some route ->
                      Some { Update.time = time +. Rng.float rng 60.;
                             session = s.Collector.id;
                             kind = Update.Announce route }
                  | None -> None
                end
              | Some _ | None -> None)
           sessions)
      attacks
    |> List.sort (fun a b -> Float.compare a.Update.time b.Update.time)
  in
  (attacks, extra_updates)

let monitoring ~rng ?(n_attacks = 6) ?(dynamics = Dynamics.short_config)
    (scenario : Scenario.t) =
  let duration = dynamics.Dynamics.duration in
  let attacks, extra_updates =
    inject_hijacks ~rng ~n_attacks ~duration scenario
  in
  let monitor = Detection.create ~learning_period:(duration /. 4.) () in
  let alarm_log = ref [] in
  let observe u =
    List.iter (fun a -> alarm_log := a :: !alarm_log) (Detection.observe monitor u)
  in
  let _ = Measurement.run ~dynamics ~extra_updates ~observe scenario in
  let alarms = List.rev !alarm_log in
  let attacked_prefixes =
    List.map (fun (v, _, t) -> (v.Announcement.prefix, t)) attacks
  in
  let on_attacked =
    List.filter
      (fun a ->
         List.exists
           (fun (p, _) -> Prefix.equal p (Detection.alarm_prefix a))
           attacked_prefixes)
      alarms
  in
  let delays =
    List.filter_map
      (fun (p, t) ->
         alarms
         |> List.filter (fun a ->
             Prefix.equal (Detection.alarm_prefix a) p && a.Detection.time >= t)
         |> List.map (fun a -> a.Detection.time -. t)
         |> function [] -> None | l -> Some (List.fold_left Float.min infinity l))
      attacked_prefixes
  in
  let detected = List.length delays in
  { n_attacks = List.length attacks;
    detected;
    recall = float_of_int detected /. float_of_int (max 1 (List.length attacks));
    alarms_total = List.length alarms;
    alarms_on_attacked = List.length on_attacked;
    precision =
      float_of_int (List.length on_attacked)
      /. float_of_int (max 1 (List.length alarms));
    mean_detection_delay = (match delays with [] -> 0. | l -> Stats.mean l) }

let print_selection ppf evals =
  Format.fprintf ppf "C1a: relay-selection policies vs AS-level adversaries@.";
  Format.fprintf ppf "  %-34s %-8s %-14s %-12s %-12s@."
    "policy" "trials" "common-AS rate" "entry ASes" "P[compromise]";
  List.iter
    (fun e ->
       Format.fprintf ppf "  %-34s %-8d %-14.2f %-12d %-12.3f@."
         (policy_name e.policy) e.trials e.common_as_rate e.mean_exposed_ases
         e.model_compromise)
    evals

let print_stealth ppf evals =
  Format.fprintf ppf "C1b: stealth (community-scoped) interception vs guard choice@.";
  List.iter
    (fun e ->
       Format.fprintf ppf "  %-34s capture rate %.2f over %d trials@."
         (policy_name e.s_policy) e.captured_rate e.s_trials)
    evals

let print_monitoring ppf m =
  Format.fprintf ppf "C1c: control-plane monitoring of relay prefixes@.";
  Format.fprintf ppf
    "  %d injected hijacks: detected %d (recall %.2f), mean delay %.0f s@."
    m.n_attacks m.detected m.recall m.mean_detection_delay;
  Format.fprintf ppf
    "  %d alarms total, %d on attacked prefixes (precision %.2f — FPs are acceptable per §5)@."
    m.alarms_total m.alarms_on_attacked m.precision

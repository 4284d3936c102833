(* Tests for qs_core: scenario construction, the measurement pipeline and
   every experiment module. These use the Small scale and short dynamics so
   the suite stays fast. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scenario = lazy (Scenario.build ~seed:5 Scenario.Small)

let tiny_dynamics =
  { Dynamics.short_config with
    Dynamics.duration = 12. *. 3600.;
    base_churn_rate = 0.3 }

let measurement = lazy (Measurement.run ~dynamics:tiny_dynamics (Lazy.force scenario))

(* ---- Scenario --------------------------------------------------------- *)

let test_scenario_deterministic () =
  let a = Scenario.build ~seed:11 Scenario.Small in
  let b = Scenario.build ~seed:11 Scenario.Small in
  Alcotest.(check string) "same consensus"
    (Consensus.to_string a.Scenario.consensus)
    (Consensus.to_string b.Scenario.consensus);
  Alcotest.(check string) "same topology"
    (As_graph.to_caida_string a.Scenario.graph)
    (As_graph.to_caida_string b.Scenario.graph)

let test_scenario_seed_matters () =
  let a = Scenario.build ~seed:11 Scenario.Small in
  let b = Scenario.build ~seed:12 Scenario.Small in
  check_bool "different seeds differ" true
    (Consensus.to_string a.Scenario.consensus
     <> Consensus.to_string b.Scenario.consensus)

let test_scenario_guard_announcement () =
  let s = Lazy.force scenario in
  List.iter
    (fun g ->
       match Scenario.guard_announcement s g with
       | Some ann ->
           check_bool "prefix covers the relay" true
             (Prefix.mem g.Relay.ip ann.Announcement.prefix)
       | None -> Alcotest.fail "guard without announcement")
    (Consensus.guards s.Scenario.consensus)

let test_scenario_client_as () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 1 in
  for _ = 1 to 20 do
    let a = Scenario.random_client_as ~rng s in
    check_bool "client AS hosts no relay" true
      (Consensus.relays_in s.Scenario.consensus a = []);
    check_bool "client AS is a stub" true
      ((As_graph.info s.Scenario.graph a).As_graph.tier = As_graph.Stub)
  done

(* The candidate list [random_client_as] rebuilt on every call before the
   pool existed, kept as the reference [client_ases] must equal. *)
let reference_client_ases (s : Scenario.t) =
  let relay_ases =
    Array.fold_left
      (fun acc (r : Relay.t) -> Asn.Set.add r.Relay.asn acc)
      Asn.Set.empty s.Scenario.consensus.Consensus.relays
  in
  As_graph.ases s.Scenario.graph
  |> List.filter (fun a ->
      (match (As_graph.info s.Scenario.graph a).As_graph.tier with
       | As_graph.Stub -> true
       | As_graph.Tier1 | As_graph.Transit -> false)
      && not (Asn.Set.mem a relay_ases)
      && Addressing.prefixes_of s.Scenario.addressing a <> [])
  |> Array.of_list

let test_scenario_client_pool () =
  List.iter
    (fun (size, seed) ->
       let s = Scenario.build ~seed size in
       let what = Printf.sprintf "%s seed %d" (Scenario.size_to_string size) seed in
       let expected = reference_client_ases s in
       List.iter
         (fun a ->
            check_bool (what ^ ": originates = has prefixes") true
              (Addressing.originates s.Scenario.addressing a
               = (Addressing.prefixes_of s.Scenario.addressing a <> [])))
         (Asn.of_int 999_999 :: As_graph.ases s.Scenario.graph);
       check_bool (what ^ ": client_ases = reference") true
         (Array.length expected > 0
          && Array.for_all2 Asn.equal expected s.Scenario.client_ases);
       let a = Rng.of_int seed and b = Rng.of_int seed in
       for _ = 1 to 100 do
         check_bool (what ^ ": same draw") true
           (Asn.equal (Scenario.random_client_as ~rng:a s) (Rng.pick b expected))
       done)
    (List.concat_map
       (fun size -> List.map (fun seed -> (size, seed)) [ 1; 2; 3 ])
       [ Scenario.Small; Scenario.Paper ])

let test_scenario_rng_for_stable () =
  let s = Lazy.force scenario in
  let a = Rng.int64 (Scenario.rng_for s "x") in
  let b = Rng.int64 (Scenario.rng_for s "x") in
  let c = Rng.int64 (Scenario.rng_for s "y") in
  check_bool "same name same stream" true (Int64.equal a b);
  check_bool "different name different stream" true (not (Int64.equal a c))

(* Regression (failed before the Digest-based derivation): [rng_for] used
   to seed its stream with [seed + 0x9E37 * Hashtbl.hash name], and
   [Hashtbl.hash]'s bounded range makes cross-(seed, name) collisions
   constructible — with ha = hash "alpha" and hb = hash "bravo", the pair
   (seed, "alpha") collided with (seed + 0x9E37 * (ha - hb), "bravo"),
   feeding two supposedly independent experiments the same randomness. *)
let test_scenario_rng_for_no_hash_collision () =
  let s1 = Lazy.force scenario in
  let ha = Hashtbl.hash "alpha" and hb = Hashtbl.hash "bravo" in
  let seed2 = s1.Scenario.seed + (0x9E37 * (ha - hb)) in
  let s2 = Scenario.build ~seed:seed2 s1.Scenario.size in
  let a = Rng.int64 (Scenario.rng_for s1 "alpha") in
  let b = Rng.int64 (Scenario.rng_for s2 "bravo") in
  check_bool "constructed (seed, name) collision gets distinct streams" true
    (not (Int64.equal a b))

(* The stream-name audit: [Scenario.stream_names] is the registry of
   every name the codebase passes to [rng_for]; it must be sorted and
   duplicate-free, and across random seeds every registered name must
   derive a pairwise-distinct stream seed (no two experiments share
   randomness). [rng_for] reads only the seed, so the property rebinds
   the seed on one built scenario instead of rebuilding per case. *)
let test_scenario_stream_names_registry () =
  let names = Scenario.stream_names in
  check_bool "sorted" true (List.sort String.compare names = names);
  check_int "duplicate-free" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let prop_stream_names_pairwise_distinct =
  QCheck.Test.make ~name:"rng_for pairwise distinct over stream_names"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let s = { (Lazy.force scenario) with Scenario.seed } in
       let derived =
         List.map (fun n -> Rng.int64 (Scenario.rng_for s n))
           Scenario.stream_names
       in
       List.length (List.sort_uniq Int64.compare derived)
       = List.length Scenario.stream_names)

(* ---- Measurement ------------------------------------------------------ *)

let test_measurement_cells_consistent () =
  let m = Lazy.force measurement in
  check_bool "has cells" true (m.Measurement.cells <> []);
  List.iter
    (fun (c : Measurement.cell) ->
       check_bool "updates >= changes" true
         (c.Measurement.updates >= c.Measurement.path_changes);
       List.iter
         (fun (_, d) ->
            check_bool "residency within duration" true
              (d >= 0. && d <= m.Measurement.duration +. 1e-6))
         c.Measurement.residency)
    m.Measurement.cells

let test_measurement_baseline_residency () =
  (* a cell with a baseline and no updates must have full-duration
     residency on its baseline ASes *)
  let m = Lazy.force measurement in
  let quiet =
    List.find_opt
      (fun (c : Measurement.cell) ->
         c.Measurement.baseline <> None && c.Measurement.updates = 0)
      m.Measurement.cells
  in
  match quiet with
  | None -> ()  (* churny run; fine *)
  | Some c ->
      let base = Option.value ~default:Asn.Set.empty c.Measurement.baseline in
      Asn.Set.iter
        (fun a ->
           match List.assoc_opt a c.Measurement.residency with
           | Some d ->
               check_bool "full residency" true
                 (Float.abs (d -. m.Measurement.duration) < 1.0)
           | None -> Alcotest.fail "baseline AS missing residency")
        base

let test_measurement_extra_ases_threshold () =
  let m = Lazy.force measurement in
  List.iter
    (fun (c : Measurement.cell) ->
       let strict = Measurement.extra_ases ~threshold:3600. c in
       let loose = Measurement.extra_ases ~threshold:60. c in
       check_bool "higher threshold, fewer extras" true
         (Asn.Set.subset strict loose))
    m.Measurement.cells

let test_measurement_visibility_bounds () =
  let m = Lazy.force measurement in
  let s = Lazy.force scenario in
  Tor_prefix.entries s.Scenario.tor_prefixes
  |> List.iter (fun e ->
      let v = Measurement.visibility_fraction m e.Tor_prefix.prefix in
      check_bool "visibility in [0,1]" true (v >= 0. && v <= 1.))

let test_measurement_extra_updates_merged () =
  let s = Lazy.force scenario in
  let session =
    match Scenario.sessions s with
    | sess :: _ -> sess.Collector.id
    | [] -> Alcotest.fail "no sessions"
  in
  let p = Prefix.of_string "203.0.113.0/24" in
  let extra =
    [ { Update.time = 1000.;
        session;
        kind = Update.Announce (Route.make p [ session.Update.peer; Asn.of_int 65000 ]) } ]
  in
  let seen = ref false in
  let m =
    Measurement.run ~dynamics:tiny_dynamics ~extra_updates:extra
      ~observe:(fun u -> if Prefix.equal (Update.prefix u) p then seen := true)
      s
  in
  check_bool "injected update observed" true !seen;
  check_bool "injected prefix has a cell" true
    (List.exists
       (fun (c : Measurement.cell) ->
          Prefix.equal c.Measurement.key.Measurement.prefix p)
       m.Measurement.cells)

(* ---- Experiments ------------------------------------------------------ *)

let test_dataset () =
  let m = Lazy.force measurement in
  let d = Dataset.compute m in
  let p = Consensus.small_params in
  check_int "relays" p.Consensus.n_relays d.Dataset.n_relays;
  check_int "guards" p.Consensus.n_guards d.Dataset.n_guards;
  check_int "exits" p.Consensus.n_exits d.Dataset.n_exits;
  check_bool "visibility sane" true
    (d.Dataset.mean_visibility > 0. && d.Dataset.mean_visibility <= 1.);
  check_bool "prefixes counted" true (d.Dataset.n_tor_prefixes > 0)

let test_concentration () =
  let s = Lazy.force scenario in
  let c = Concentration.compute s in
  check_bool "curve ends at 100%" true
    (match List.rev c.Concentration.curve with
     | (_, pct) :: _ -> Float.abs (pct -. 100.) < 1e-6
     | [] -> false);
  check_bool "curve monotone" true
    (let rec mono = function
       | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && mono rest
       | _ -> true
     in
     mono c.Concentration.curve);
  check_bool "top5 between share(1) and 1" true
    (c.Concentration.top5_share >= Concentration.share_at c 1
     && c.Concentration.top5_share <= 1.);
  check_bool "hosting ASes dominate" true (c.Concentration.top5_share > 0.2)

let test_path_changes () =
  let m = Lazy.force measurement in
  let pc = Path_changes.compute m in
  check_bool "has ratios" true (pc.Path_changes.ratios <> []);
  check_bool "fractions in range" true
    (pc.Path_changes.frac_above_one >= 0. && pc.Path_changes.frac_above_one <= 1.
     && pc.Path_changes.frac_tor_beating_median_somewhere <= 1.);
  check_bool "tor prefixes churn more than median" true
    (pc.Path_changes.frac_above_one > 0.2);
  (* Each session's median is [Stats.median] of its cells' counts, bit
     for bit, though it is taken over ints. *)
  List.iter
    (fun (session, median) ->
       let counts =
         List.filter_map
           (fun (c : Measurement.cell) ->
              if Update.session_equal c.Measurement.key.Measurement.session
                   session
              then Some (float_of_int c.Measurement.path_changes)
              else None)
           m.Measurement.cells
       in
       Alcotest.(check int64) "session median = Stats.median"
         (Int64.bits_of_float (Stats.median counts))
         (Int64.bits_of_float median))
    pc.Path_changes.per_session_median

let test_as_exposure () =
  let m = Lazy.force measurement in
  let e5 = As_exposure.compute m in
  let e0 = As_exposure.compute ~threshold:0. m in
  check_bool "thresholding reduces exposure" true
    (e0.As_exposure.frac_at_least_2 >= e5.As_exposure.frac_at_least_2);
  check_bool "max >= 0" true (e5.As_exposure.max_extras >= 0);
  List.iter
    (fun e -> check_bool "non-negative" true (e >= 0))
    e5.As_exposure.extras

let test_compromise () =
  let rng = Rng.of_int 9 in
  let c = Compromise.compute ~rng ~trials:3000 () in
  check_bool "monte carlo close to analytic" true (c.Compromise.max_abs_error < 0.05);
  List.iter
    (fun r ->
       check_bool "l=3 amplifies" true
         (r.Compromise.analytic_l3 >= r.Compromise.analytic_l1))
    c.Compromise.rows

let test_asymmetric_run () =
  let rng = Rng.of_int 21 in
  let r = Asymmetric.run ~rng ~size:(3 * 1024 * 1024) () in
  check_bool "completed" true r.Asymmetric.completed;
  check_bool "asymmetric correlation strong" true (r.Asymmetric.asymmetric_r > 0.5);
  check_bool "ack-ack correlation strong" true (r.Asymmetric.ack_ack_r > 0.5);
  check_int "four curves" 4 (List.length r.Asymmetric.curves)

let test_asymmetric_matching () =
  let rng = Rng.of_int 22 in
  let m = Asymmetric.deanonymize ~rng ~n_flows:4 ~size:(2 * 1024 * 1024) () in
  check_bool "beats chance" true
    (m.Asymmetric.accuracy > 1.5 /. float_of_int m.Asymmetric.n_flows)

let test_hijack_experiment () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 31 in
  let h = Deanonymization.hijack ~rng ~n_trials:8 ~n_clients:20 s in
  check_bool "trials ran" true (h.Deanonymization.trials <> []);
  check_bool "capture fraction sane" true
    (h.Deanonymization.mean_capture > 0. && h.Deanonymization.mean_capture < 1.);
  List.iter
    (fun t ->
       check_bool "set bounded by clients" true
         (t.Deanonymization.anonymity_set_size <= t.Deanonymization.n_clients))
    h.Deanonymization.trials

let test_interception_experiment () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 32 in
  let i = Deanonymization.interception ~rng ~n_trials:8 ~timing_accuracy:1.0 s in
  check_bool "rates in range" true
    (i.Deanonymization.feasibility_rate >= 0.
     && i.Deanonymization.feasibility_rate <= 1.
     && i.Deanonymization.deanonymization_rate
        <= i.Deanonymization.i_target_capture_rate +. 1e-9)

let test_countermeasure_selection () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 33 in
  let evals = Countermeasures.selection ~rng ~n_trials:12 s in
  check_int "three policies" 3 (List.length evals);
  let find p =
    List.find (fun e -> e.Countermeasures.policy = p) evals
  in
  let default = find Countermeasures.Default in
  let aware = find Countermeasures.As_aware in
  check_bool "AS-aware not worse than default" true
    (aware.Countermeasures.common_as_rate
     <= default.Countermeasures.common_as_rate +. 1e-9);
  check_bool "model compromise ordered too" true
    (aware.Countermeasures.model_compromise
     <= default.Countermeasures.model_compromise +. 1e-9)

let test_countermeasure_monitoring () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 34 in
  let m = Countermeasures.monitoring ~rng ~n_attacks:4 s in
  check_int "attacks injected" 4 m.Countermeasures.n_attacks;
  check_bool "some detection" true (m.Countermeasures.recall > 0.);
  check_bool "precision in range" true
    (m.Countermeasures.precision >= 0. && m.Countermeasures.precision <= 1.)

(* ---- Extensions -------------------------------------------------------- *)

let test_bgp_security_sweep () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 41 in
  let x = Bgp_security.sweep ~rng ~n_trials:6 s in
  check_int "five points" 5 (List.length x.Bgp_security.points);
  let first = List.hd x.Bgp_security.points in
  let last = List.nth x.Bgp_security.points 4 in
  check_bool "deployment ascending" true
    (first.Bgp_security.deployment < last.Bgp_security.deployment);
  check_bool "full ROV kills origin hijack" true
    (last.Bgp_security.hijack_capture < 0.1
     && last.Bgp_security.hijack_capture < first.Bgp_security.hijack_capture);
  check_bool "interception unaffected by ROV" true
    (Float.abs
       (last.Bgp_security.interception_capture
        -. first.Bgp_security.interception_capture)
     < 1e-9);
  List.iter
    (fun p ->
       check_bool "fractions in range" true
         (p.Bgp_security.hijack_capture >= 0. && p.Bgp_security.hijack_capture <= 1.
          && p.Bgp_security.subprefix_capture <= 1.
          && p.Bgp_security.interception_feasible <= 1.))
    x.Bgp_security.points

let test_route_asymmetry () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 42 in
  let x = Route_asymmetry.compute ~rng ~n_pairs:25 s in
  check_bool "pairs computed" true (x.Route_asymmetry.pairs <> []);
  check_bool "union at least forward" true
    (x.Route_asymmetry.mean_union >= x.Route_asymmetry.mean_forward -. 1e-9);
  check_bool "compromise union >= forward" true
    (x.Route_asymmetry.compromise_union
     >= x.Route_asymmetry.compromise_forward -. 1e-9);
  List.iter
    (fun p ->
       check_bool "forward contains client and guard-origin walk" true
         (Asn.Set.mem p.Route_asymmetry.client p.Route_asymmetry.forward))
    x.Route_asymmetry.pairs

let test_long_term_designs () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 43 in
  let outs = Long_term.compare_designs ~rng ~horizon_days:60 ~f:0.08 ~n_draws:4 s in
  check_int "four designs" 4 (List.length outs);
  List.iter
    (fun o ->
       check_bool "fraction in range" true
         (o.Long_term.compromised_fraction >= 0.
          && o.Long_term.compromised_fraction <= 1.);
       check_bool "median within horizon" true
         (match o.Long_term.median_day with
          | Some d -> d >= 1 && d <= 60
          | None -> true);
       check_int "days list consistent"
         (List.length o.Long_term.days_to_compromise)
         (int_of_float
            (Float.round
               (o.Long_term.compromised_fraction *. float_of_int o.Long_term.clients))))
    outs

(* Long_term caches one routing outcome per origin and serves it for
   every prefix the origin announces: a plain announcement's routes do not
   depend on which of the origin's prefixes it carries. *)
let test_long_term_routes_by_origin () =
  let s = Lazy.force scenario in
  let graph = s.Scenario.graph in
  let origin, p1, p2 =
    match
      List.find_map
        (fun a ->
           match Addressing.prefixes_of s.Scenario.addressing a with
           | p1 :: p2 :: _ -> Some (a, p1, p2)
           | _ -> None)
        (As_graph.ases graph)
    with
    | Some x -> x
    | None -> Alcotest.fail "no AS originates two prefixes"
  in
  let links = As_graph.core_links graph in
  List.iter
    (fun failed ->
       let route p =
         Propagate.compute s.Scenario.indexed ~failed
           [ Announcement.originate origin p ]
       in
       let o1 = route p1 and o2 = route p2 in
       List.iter
         (fun a ->
            check_bool
              (Printf.sprintf "AS%d: same walk to %s and %s" (Asn.to_int a)
                 (Prefix.to_string p1) (Prefix.to_string p2))
              true
              (Propagate.forwarding_path o1 a = Propagate.forwarding_path o2 a))
         (As_graph.ases graph))
    [ Link_set.empty;
      Link_set.of_list s.Scenario.indexed [ links.(Array.length links / 2) ] ]

let test_long_term_monotone_in_f () =
  let s = Lazy.force scenario in
  let frac f seed =
    let rng = Rng.of_int seed in
    let outs = Long_term.compare_designs ~rng ~horizon_days:60 ~f ~n_draws:4 s in
    List.fold_left (fun acc o -> acc +. o.Long_term.compromised_fraction) 0. outs
  in
  check_bool "more malicious ASes, more compromise" true
    (frac 0.15 44 >= frac 0.02 44)

let test_convergence_leak () =
  let m = Lazy.force measurement in
  let x = Convergence_leak.compute m in
  check_bool "counts non-negative" true
    (List.for_all (fun c -> c >= 0) x.Convergence_leak.transient_counts);
  check_bool "fraction in range" true
    (x.Convergence_leak.frac_cases_with_transient >= 0.
     && x.Convergence_leak.frac_cases_with_transient <= 1.);
  (* a zero analysis threshold means nothing is transient *)
  let strict = Convergence_leak.compute ~analysis_threshold:0. m in
  check_int "no transients at threshold 0" 0
    strict.Convergence_leak.total_transient_ases

let test_guard_inference () =
  let s = Lazy.force scenario in
  let rng = Rng.of_int 45 in
  let consensus = s.Scenario.consensus in
  let true_guard = Path_selection.pick_guard ~rng consensus in
  let strong =
    { Guard_inference.default_config with
      Guard_inference.noise_sigma = 0.0001; probes = 1; n_candidates = 200 }
  in
  let r = Guard_inference.infer ~rng ~config:strong consensus ~true_guard in
  check_bool "noise-free inference is exact" true r.Guard_inference.correct;
  check_bool "true guard probed" true r.Guard_inference.true_guard_probed;
  (* more probes help *)
  let rate probes =
    let rng = Rng.of_int 46 in
    let config = { Guard_inference.default_config with Guard_inference.probes } in
    Guard_inference.success_rate ~rng ~config ~trials:120 consensus
  in
  check_bool "probing more beats probing once" true (rate 12 >= rate 1)

(* ---- Parallel determinism --------------------------------------------- *)

(* The executor's contract: every experiment that takes [?exec] must print
   byte-identical output at jobs=1 and jobs=N. Rendering through the real
   [print] functions compares everything the user can see — row order,
   tie-breaks, float formatting — not just a summary statistic. *)

let render print v =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  print ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let prop_compromise_jobs_identical =
  QCheck.Test.make ~name:"M1 byte-identical at jobs=1 and jobs=4" ~count:5
    QCheck.(int_bound 10_000)
    (fun seed ->
       let table jobs =
         Pool.with_pool ~jobs (fun exec ->
             render Compromise.print
               (Compromise.compute ~rng:(Rng.of_int seed) ~exec ~trials:400
                  ~universe:600 ()))
       in
       String.equal (table 1) (table 4))

let prop_long_term_jobs_identical =
  QCheck.Test.make ~name:"M2 byte-identical at jobs=1 and jobs=4" ~count:3
    QCheck.(int_bound 10_000)
    (fun seed ->
       let s = Lazy.force scenario in
       let table jobs =
         Pool.with_pool ~jobs (fun exec ->
             render Long_term.print
               (Long_term.compare_designs ~rng:(Rng.of_int seed)
                  ~horizon_days:30 ~n_draws:2 ~exec s))
       in
       String.equal (table 1) (table 4))

(* M2 under a living consensus: the pool tasks build the epochs they
   consult. jobs=4 runs first, on a fresh consensus, so several domains
   ask for the same unbuilt epochs; a jobs=1 run on another fresh
   consensus and a jobs=1 rerun on the first one must print the same. *)
let test_long_term_living_jobs_identical () =
  let s = Lazy.force scenario in
  let config = { Long_term.default_config with Long_term.horizon_days = 30 } in
  let run jobs living =
    Pool.with_pool ~jobs (fun exec ->
        render Long_term.print
          [ Long_term.run ~rng:(Rng.of_int 17) ~config ~living ~exec s ])
  in
  let fresh () = Long_term.living_consensus ~horizon_days:30 s in
  let shared = fresh () in
  let j4 = run 4 shared in
  Alcotest.(check string) "living M2 at jobs=4 = jobs=1" (run 1 (fresh ())) j4;
  Alcotest.(check string) "and = a jobs=1 rerun" (run 1 shared) j4

(* Four workers ask for the same unbuilt epochs at once: every task gets
   one shared consensus per epoch, rendering as a serial build does. *)
let test_living_epochs_built_across_domains () =
  let s = Lazy.force scenario in
  let cd = Long_term.living_consensus ~horizon_days:5 s in
  let serial = Long_term.living_consensus ~horizon_days:5 s in
  let epochs = [| 0; 17; 63; 119 |] in
  let got =
    Pool.with_pool ~jobs:4 (fun exec ->
        Pool.map ~chunk:1 exec
          (fun k ->
             Consensus_dynamics.at_time cd
               (float_of_int epochs.(k mod 4) *. 3600.))
          (Array.init 64 Fun.id))
  in
  Array.iteri
    (fun k c ->
       let i = epochs.(k mod 4) in
       check_bool (Printf.sprintf "task %d: one shared epoch %d" k i) true
         (c == Consensus_dynamics.at_time cd (float_of_int i *. 3600.));
       Alcotest.(check string) (Printf.sprintf "task %d: epoch %d = serial" k i)
         (Consensus.to_string
            (Consensus_dynamics.at serial i).Consensus_dynamics.consensus)
         (Consensus.to_string c))
    got

let prop_as_exposure_jobs_identical =
  QCheck.Test.make ~name:"F3R byte-identical at jobs=1 and jobs=4" ~count:5
    QCheck.(int_range 1 30)
    (fun minutes ->
       let m = Lazy.force measurement in
       let threshold = float_of_int (60 * minutes) in
       let table jobs =
         Pool.with_pool ~jobs (fun exec ->
             render As_exposure.print (As_exposure.compute ~threshold ~exec m))
       in
       String.equal (table 1) (table 4))

let test_path_changes_jobs_identical () =
  let m = Lazy.force measurement in
  let table jobs =
    Pool.with_pool ~jobs (fun exec ->
        render Path_changes.print (Path_changes.compute ~exec m))
  in
  Alcotest.(check string) "F3L byte-identical at jobs=1 and jobs=4"
    (table 1) (table 4);
  Alcotest.(check string) "and at jobs=2" (table 1) (table 2)

let test_fingerprint_jobs_identical () =
  let s = Lazy.force scenario in
  let fp jobs =
    Pool.with_pool ~jobs (fun exec -> Scenario.fingerprint ~exec s)
  in
  Alcotest.(check string) "fingerprint identical at jobs=1 and jobs=4"
    (fp 1) (fp 4)

(* Regression (failed before the identity section was added): the
   fingerprint digested only graph/consensus/addressing/sessions, so two
   sweep cells over the same built scenario — different churn model,
   adversary fraction, horizon — fingerprinted identically and their
   results directories were indistinguishable. The params section must
   separate them, canonically (binding order must not matter, and the
   length-prefixed rendering must keep adversarial key/value spellings
   from aliasing). *)
let test_fingerprint_params_identity () =
  let s = Lazy.force scenario in
  let fp params = Scenario.fingerprint ~params s in
  check_bool "distinct params, distinct fingerprints" true
    (fp [ ("churn", "heavy") ] <> fp [ ("churn", "calm") ]);
  check_bool "params change the no-params fingerprint" true
    (fp [ ("churn", "heavy") ] <> Scenario.fingerprint s);
  Alcotest.(check string) "binding order canonicalized"
    (fp [ ("adversary", "0.05"); ("churn", "heavy") ])
    (fp [ ("churn", "heavy"); ("adversary", "0.05") ]);
  Alcotest.(check string) "absent params = empty params"
    (Scenario.fingerprint s) (fp []);
  check_bool "length-prefixed rendering cannot alias" true
    (fp [ ("a", "1=2:x") ] <> fp [ ("a=1", "2:x") ])

(* ---- Fresh accumulators ------------------------------------------------ *)

(* A cell that only ever holds its time-0 route keeps no tables; these
   pin that its reads, its seal and its first update all behave exactly
   like the table-backed accumulator. *)

let acc_key =
  { Measurement.session =
      { Update.collector = "rrc00"; peer = Asn.of_int 64512 };
    prefix = Prefix.of_string "10.0.0.0/24" }

let ases l = Asn.Set.of_list (List.map Asn.of_int l)

let sorted_runs l =
  List.sort (fun (a, _) (b, _) -> Asn.compare a b) l
  |> List.map (fun (a, d) -> (Asn.to_int a, Int64.bits_of_float d))

let runs_t = Alcotest.(list (pair int int64))

let bits l = List.map (fun (a, d) -> (a, Int64.bits_of_float d)) l

let fresh_acc base =
  let acc = Measurement.Acc.create () in
  Measurement.Acc.set_baseline acc (ases base);
  acc

let test_fresh_acc_seals_to_baseline () =
  (* A duration with no short binary expansion: the seal must carry it
     bit for bit. *)
  let duration = 3600.1 in
  let acc = fresh_acc [ 3; 1; 2 ] in
  Measurement.Acc.seal acc duration;
  match Measurement.Acc.cell acc_key acc with
  | None -> Alcotest.fail "a baseline cell materializes"
  | Some c ->
      let every = bits [ (1, duration); (2, duration); (3, duration) ] in
      Alcotest.check runs_t "residency = every baseline AS at duration" every
        (sorted_runs c.Measurement.residency);
      Alcotest.check runs_t "contiguous = every baseline AS at duration" every
        (sorted_runs c.Measurement.contiguous);
      check_int "no updates" 0 c.Measurement.updates;
      check_bool "final set is the baseline" true
        (Option.equal Asn.Set.equal c.Measurement.final_set
           (Some (ases [ 1; 2; 3 ])))

let test_fresh_acc_seal_at_zero () =
  let acc = fresh_acc [ 1; 2 ] in
  Measurement.Acc.seal acc 0.;
  match Measurement.Acc.cell acc_key acc with
  | None -> Alcotest.fail "a baseline cell materializes"
  | Some c ->
      Alcotest.check runs_t "no residency at t = 0" []
        (sorted_runs c.Measurement.residency);
      Alcotest.check runs_t "no runs at t = 0" []
        (sorted_runs c.Measurement.contiguous)

let test_fresh_acc_reads () =
  let acc = fresh_acc [ 1; 2 ] in
  Alcotest.(check (option (float 0.))) "baseline AS on a run since 0"
    (Some 0.) (Measurement.Acc.run_start acc (Asn.of_int 1));
  Alcotest.(check (option (float 0.))) "other AS not on the path" None
    (Measurement.Acc.run_start acc (Asn.of_int 7));
  Alcotest.(check (float 0.)) "open run counts up to [at]" 42.5
    (Measurement.Acc.longest_run acc ~at:42.5 (Asn.of_int 2));
  Alcotest.(check (float 0.)) "off-path AS has no run" 0.
    (Measurement.Acc.longest_run acc ~at:42.5 (Asn.of_int 7));
  Alcotest.(check (float 0.)) "no completed run yet" 0.
    (Measurement.Acc.best_run acc (Asn.of_int 1));
  Alcotest.check runs_t "nothing credited before an update" []
    (sorted_runs (Measurement.Acc.residency acc));
  Alcotest.check runs_t "no completed runs before an update" []
    (sorted_runs (Measurement.Acc.contiguous acc))

(* Reads on a fresh accumulator change nothing: the first update then
   yields exactly the cell an unread accumulator yields, and both match
   the hand-computed eager numbers. *)
let test_fresh_acc_first_consume () =
  let feed =
    [ { Update.time = 100.; session = acc_key.Measurement.session;
        kind =
          Update.Announce
            (Route.make acc_key.Measurement.prefix
               (List.map Asn.of_int [ 1; 4 ])) } ]
  in
  let run ~read =
    let acc = fresh_acc [ 1; 2; 3 ] in
    if read then begin
      ignore (Measurement.Acc.run_start acc (Asn.of_int 2));
      ignore (Measurement.Acc.longest_run acc ~at:50. (Asn.of_int 3));
      ignore (Measurement.Acc.residency acc);
      ignore (Measurement.Acc.contiguous acc)
    end;
    List.iter (fun u -> ignore (Measurement.Acc.consume acc u)) feed;
    Alcotest.(check (float 0.)) "run of a kept AS is still open since 0"
      100. (Measurement.Acc.longest_run acc ~at:100. (Asn.of_int 1));
    Measurement.Acc.seal acc 500.;
    Option.get (Measurement.Acc.cell acc_key acc)
  in
  let read = run ~read:true and unread = run ~read:false in
  let expect = bits [ (1, 500.); (2, 100.); (3, 100.); (4, 400.) ] in
  List.iter
    (fun (name, (c : Measurement.cell)) ->
       Alcotest.check runs_t (name ^ ": residency") expect
         (sorted_runs c.Measurement.residency);
       Alcotest.check runs_t (name ^ ": contiguous") expect
         (sorted_runs c.Measurement.contiguous);
       check_int (name ^ ": one update") 1 c.Measurement.updates;
       check_int (name ^ ": one path change") 1 c.Measurement.path_changes)
    [ ("after reads", read); ("unread", unread) ]

(* ---- An independent oracle for Acc ------------------------------------- *)

(* One key's stream: an optional baseline, announces over short paths
   drawn from six ASes (repeats allowed), withdrawals (first ones
   included), non-decreasing times with ties, and a seal at or after the
   last update — at 0 when every update is at 0. *)
type acc_case = {
  c_base : int list option;
  c_events : (float * int list option) list;  (* [None]: a withdrawal *)
  c_horizon : float;
}

let acc_case_gen =
  let open QCheck.Gen in
  let path = list_size (int_range 1 4) (int_range 1 6) in
  let step = oneofl [ 0.; 0.; 0.1; 0.7; 1.3; 60.; 3600.1 ] in
  let event =
    pair step (frequency [ (4, map Option.some path); (1, return None) ])
  in
  let* c_base = opt path in
  let* raw = list_size (int_range 0 12) event in
  let+ extra = oneofl [ 0.; 0.; 0.1; 299.9; 1000. ] in
  let last, rev_events =
    List.fold_left
      (fun (t, acc) (dt, k) -> (t +. dt, (t +. dt, k) :: acc))
      (0., []) raw
  in
  { c_base; c_events = List.rev rev_events; c_horizon = last +. extra }

let print_acc_case c =
  let path l = String.concat " " (List.map string_of_int l) in
  Printf.sprintf "base=%s; %s; seal %h"
    (match c.c_base with None -> "-" | Some l -> "[" ^ path l ^ "]")
    (String.concat "; "
       (List.map
          (fun (t, k) ->
             Printf.sprintf "%h %s" t
               (match k with None -> "W" | Some l -> "A[" ^ path l ^ "]"))
          c.c_events))
    c.c_horizon

(* The cell recomputed from the stream's route segments: the state holds
   from one update (or 0) to the next (or the seal); an AS's residency is
   the sum, in time order, of the positive lengths of the segments it is
   on, and its runs are maximal stretches of consecutive segments it is
   on (a zero-length segment without it breaks a run). *)
let naive_acc_cell c =
  let norm = List.sort_uniq Int.compare in
  let state0 = Option.map norm c.c_base in
  let segs, final, changes, since =
    List.fold_left
      (fun (segs, prev, changes, since) (t, k) ->
         let next = Option.map norm k in
         let changes =
           match (prev, next) with
           | Some p, Some n when p <> n -> changes + 1
           | _ -> changes
         in
         ((since, t, prev) :: segs, next, changes, t))
      ([], state0, 0, 0.) c.c_events
  in
  let segs = List.rev ((since, c.c_horizon, final) :: segs) in
  let on a = function Some l -> List.mem a l | None -> false in
  let ases =
    List.concat_map (fun (_, _, s) -> Option.value ~default:[] s) segs
    |> norm
  in
  let residency =
    List.filter_map
      (fun a ->
         let credited, r =
           List.fold_left
             (fun (credited, r) (s, e, st) ->
                if on a st && e -. s > 0. then (true, r +. (e -. s))
                else (credited, r))
             (false, 0.) segs
         in
         if credited then Some (a, r) else None)
      ases
  in
  let contiguous =
    List.filter_map
      (fun a ->
         let close best start at =
           let run = at -. start in
           if run > best then run else best
         in
         let best, open_ =
           List.fold_left
             (fun (best, open_) (s, _, st) ->
                match (on a st, open_) with
                | true, None -> (best, Some s)
                | true, Some _ -> (best, open_)
                | false, Some start -> (close best start s, None)
                | false, None -> (best, None))
             (0., None) segs
         in
         let best =
           match open_ with
           | Some start -> close best start c.c_horizon
           | None -> best
         in
         if best > 0. then Some (a, best) else None)
      ases
  in
  let announced = List.exists (fun (_, k) -> k <> None) c.c_events in
  if c.c_base = None && not announced then None
  else Some (List.length c.c_events, changes, final, residency, contiguous)

let acc_cell_of_case c =
  let session = acc_key.Measurement.session in
  let prefix = acc_key.Measurement.prefix in
  let acc = Measurement.Acc.create () in
  Option.iter (fun b -> Measurement.Acc.set_baseline acc (ases b)) c.c_base;
  List.iter
    (fun (time, k) ->
       let kind =
         match k with
         | Some l -> Update.Announce (Route.make prefix (List.map Asn.of_int l))
         | None -> Update.Withdraw prefix
       in
       ignore (Measurement.Acc.consume acc { Update.time; session; kind }))
    c.c_events;
  Measurement.Acc.seal acc c.c_horizon;
  Measurement.Acc.cell acc_key acc

let prop_acc_naive_oracle =
  QCheck.Test.make ~name:"Acc cell = naive per-AS interval recomputation"
    ~count:500
    (QCheck.make ~print:print_acc_case acc_case_gen)
    (fun c ->
       let int_runs l = List.map (fun (a, d) -> (a, Int64.bits_of_float d)) l in
       let set_ints s = List.map Asn.to_int (Asn.Set.elements s) in
       match (naive_acc_cell c, acc_cell_of_case c) with
       | None, None -> true
       | Some (updates, changes, final, residency, contiguous), Some cell ->
           cell.Measurement.updates = updates
           && cell.Measurement.path_changes = changes
           && Option.map set_ints cell.Measurement.final_set = final
           && Option.map set_ints cell.Measurement.baseline
              = Option.map (List.sort_uniq Int.compare) c.c_base
           && sorted_runs cell.Measurement.residency = int_runs residency
           && sorted_runs cell.Measurement.contiguous = int_runs contiguous
       | Some _, None | None, Some _ -> false)

let qsuite = List.map (fun t -> QCheck_alcotest.to_alcotest t)

let () =
  Alcotest.run "qs_core"
    [ ("scenario",
       [ Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
         Alcotest.test_case "seed matters" `Quick test_scenario_seed_matters;
         Alcotest.test_case "guard announcements" `Quick
           test_scenario_guard_announcement;
         Alcotest.test_case "client AS sampling" `Quick test_scenario_client_as;
         Alcotest.test_case "client pool = reference filter" `Quick
           test_scenario_client_pool;
         Alcotest.test_case "rng_for stability" `Quick test_scenario_rng_for_stable;
         Alcotest.test_case "rng_for collision regression" `Quick
           test_scenario_rng_for_no_hash_collision;
         Alcotest.test_case "stream-name registry" `Quick
           test_scenario_stream_names_registry ]
       @ qsuite [ prop_stream_names_pairwise_distinct ]);
      ("measurement",
       [ Alcotest.test_case "cells consistent" `Quick test_measurement_cells_consistent;
         Alcotest.test_case "baseline residency" `Quick
           test_measurement_baseline_residency;
         Alcotest.test_case "extra-AS threshold monotone" `Quick
           test_measurement_extra_ases_threshold;
         Alcotest.test_case "visibility bounds" `Quick
           test_measurement_visibility_bounds;
         Alcotest.test_case "extra updates merged" `Quick
           test_measurement_extra_updates_merged;
         Alcotest.test_case "fresh acc seals to baseline" `Quick
           test_fresh_acc_seals_to_baseline;
         Alcotest.test_case "fresh acc sealed at 0" `Quick
           test_fresh_acc_seal_at_zero;
         Alcotest.test_case "fresh acc reads" `Quick test_fresh_acc_reads;
         Alcotest.test_case "fresh acc first consume" `Quick
           test_fresh_acc_first_consume ]
       @ qsuite [ prop_acc_naive_oracle ]);
      ("experiments",
       [ Alcotest.test_case "T1 dataset" `Quick test_dataset;
         Alcotest.test_case "F2L concentration" `Quick test_concentration;
         Alcotest.test_case "F3L path changes" `Quick test_path_changes;
         Alcotest.test_case "F3R exposure" `Quick test_as_exposure;
         Alcotest.test_case "M1 compromise" `Quick test_compromise;
         Alcotest.test_case "F2R run" `Quick test_asymmetric_run;
         Alcotest.test_case "F2R matching" `Quick test_asymmetric_matching;
         Alcotest.test_case "A1 hijack" `Quick test_hijack_experiment;
         Alcotest.test_case "A2 interception" `Quick test_interception_experiment;
         Alcotest.test_case "C1a selection" `Quick test_countermeasure_selection;
         Alcotest.test_case "C1c monitoring" `Quick test_countermeasure_monitoring ]);
      ("extensions",
       [ Alcotest.test_case "X1 ROV sweep" `Quick test_bgp_security_sweep;
         Alcotest.test_case "X2 route asymmetry" `Quick test_route_asymmetry;
         Alcotest.test_case "M2 guard designs" `Quick test_long_term_designs;
         Alcotest.test_case "M2 monotone in f" `Quick test_long_term_monotone_in_f;
         Alcotest.test_case "M2 routes depend only on the origin" `Quick
           test_long_term_routes_by_origin;
         Alcotest.test_case "X3 convergence leak" `Quick test_convergence_leak;
         Alcotest.test_case "GI guard inference" `Quick test_guard_inference ]);
      ("parallel determinism",
       [ Alcotest.test_case "F3L jobs identity" `Quick
           test_path_changes_jobs_identical;
         Alcotest.test_case "fingerprint jobs identity" `Quick
           test_fingerprint_jobs_identical;
         Alcotest.test_case "fingerprint params identity" `Quick
           test_fingerprint_params_identity;
         Alcotest.test_case "living M2 jobs identity" `Quick
           test_long_term_living_jobs_identical;
         Alcotest.test_case "living epochs built across domains" `Quick
           test_living_epochs_built_across_domains ]
       @ qsuite
           [ prop_compromise_jobs_identical; prop_long_term_jobs_identical;
             prop_as_exposure_jobs_identical ]) ]

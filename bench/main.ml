(* The benchmark/reproduction harness: regenerates every table and figure
   of "Anonymity on QuickSand: Using BGP to Compromise Tor" (HotNets-XIII),
   prints paper-vs-measured rows, runs the ablations that no other command
   runs (DESIGN.md §5), and finishes with Bechamel microbenchmarks of each
   experiment's kernel.

   Usage:  main.exe [--scale paper|small] [--seed N] [--only T1,F3L,...]
                    [--no-micro]                                          *)

let scale = ref "paper"
let seed = ref 1
let only : string list ref = ref []
let micro = ref true

let spec =
  [ ("--scale", Arg.Symbol ([ "paper"; "small" ], fun s -> scale := s),
     " scenario size (default paper)");
    ("--seed", Arg.Set_int seed, " experiment seed (default 1)");
    ("--only",
     Arg.String (fun s -> only := String.split_on_char ',' s),
     " comma-separated experiment ids (default: all)");
    ("--no-micro", Arg.Clear micro, " skip the Bechamel microbenchmarks") ]

let want id = !only = [] || List.mem id !only

let t0 = Clock.now ()

let section id title f =
  if want id then begin
    Format.printf "@.=== %s: %s ===@." id title;
    let start = Clock.now () in
    f ();
    Format.printf "--- (%s took %.1f s; %.0f s elapsed)@." id
      (Clock.now () -. start)
      (Clock.now () -. t0)
  end

let fmt = Format.std_formatter

(* The one kernel runner: Bechamel's OLS estimate of the time per run of
   each test, in nanoseconds, sorted by name. *)
let estimates ?(quota = 0.5) ?(limit = 300) tests =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Analyze.all ols clock (Benchmark.all cfg [ clock ] tests)
  |> Hashtbl.to_seq |> List.of_seq
  |> List.map (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (t :: _) -> (name, Some t)
      | Some [] | None -> (name, None))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let print_estimates rows =
  List.iter
    (fun (name, est) ->
       Format.printf "  %-40s %s@." name
         (match est with
          | Some t -> Printf.sprintf "%12.1f ns/run" t
          | None -> "(no estimate)"))
    rows

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun _ -> ()) "quicksand bench";
  let size = if !scale = "small" then Scenario.Small else Scenario.Paper in
  Format.printf
    "quicksand reproduction harness — scale=%s seed=%d@." !scale !seed;
  let scenario = Scenario.build ~seed:!seed size in
  Format.printf
    "scenario: %d ASes, %d links, %d announced prefixes, %d relays, %d sessions@."
    (As_graph.num_ases scenario.Scenario.graph)
    (As_graph.num_links scenario.Scenario.graph)
    (Addressing.count scenario.Scenario.addressing)
    (Consensus.n_relays scenario.Scenario.consensus)
    (List.length (Scenario.sessions scenario));

  let dynamics =
    if !scale = "small" then Dynamics.short_config else Dynamics.default_config
  in
  (* One full measurement month feeds T1, F3L, F3R, X3, M1 and the
     AB-threshold/AB-guards ablations. *)
  let measurement =
    lazy
      (Format.printf "(running the measurement month...)@.";
       let m = Measurement.run ~dynamics scenario in
       Format.printf
         "(month done: %d churn events, %d updates emitted, %d reset bursts filtered)@."
         m.Measurement.dyn_stats.Dynamics.churn_events
         m.Measurement.dyn_stats.Dynamics.updates_emitted
         (match m.Measurement.filter_stats with
          | Some fs -> List.length fs.Session_reset.bursts
          | None -> 0);
       Format.printf "%a@." Measurement.pp_dynamics_summary m;
       m)
  in

  section "T1" "dataset summary (§4 Methodology)" (fun () ->
      Dataset.print fmt (Dataset.compute (Lazy.force measurement)));

  section "F2L" "Figure 2 left — relay concentration across ASes" (fun () ->
      Concentration.print fmt (Concentration.compute scenario));

  section "F3L" "Figure 3 left — path changes of Tor prefixes" (fun () ->
      Path_changes.print fmt (Path_changes.compute (Lazy.force measurement)));

  section "F3R" "Figure 3 right — extra ASes seeing Tor traffic" (fun () ->
      As_exposure.print fmt (As_exposure.compute (Lazy.force measurement)));

  section "M1" "§3.1 analytic compromise model" (fun () ->
      let rng = Scenario.rng_for scenario "compromise" in
      let m1 = Compromise.compute ~rng () in
      Compromise.print fmt m1;
      (* plug the measured month into the model *)
      let exposure = As_exposure.compute (Lazy.force measurement) in
      let static, dynamic = Compromise.exposure_based ~f:0.05 ~l:3 exposure in
      Format.printf
        "  with f=0.05, l=3 guards: P[compromise] %.3f on static paths -> %.3f with measured dynamics@."
        static dynamic);

  section "F2R" "Figure 2 right — asymmetric traffic analysis" (fun () ->
      let rng = Scenario.rng_for scenario "asymmetric" in
      let size = if !scale = "small" then 8 * 1024 * 1024 else 40 * 1024 * 1024 in
      let r = Asymmetric.run ~rng ~size () in
      Asymmetric.print fmt r;
      let m = Asymmetric.deanonymize ~rng () in
      Asymmetric.print_matching fmt m);

  section "A1" "§3.2 prefix hijack — anonymity sets" (fun () ->
      let rng = Scenario.rng_for scenario "hijack" in
      Deanonymization.print_hijack fmt
        (Deanonymization.hijack ~rng ~n_trials:15 ~n_clients:40 scenario));

  section "A2" "§3.2 prefix interception — exact deanonymization" (fun () ->
      let rng = Scenario.rng_for scenario "interception" in
      Deanonymization.print_interception fmt
        (Deanonymization.interception ~rng ~n_trials:15 scenario));

  section "C1a" "§5 countermeasure — AS-aware relay selection" (fun () ->
      let rng = Scenario.rng_for scenario "selection" in
      Countermeasures.print_selection fmt
        (Countermeasures.selection ~rng ~n_trials:20 scenario));

  section "C1b" "§5 countermeasure — short AS-PATH guards vs stealth attacks"
    (fun () ->
       let rng = Scenario.rng_for scenario "stealth" in
       Countermeasures.print_stealth fmt
         (Countermeasures.stealth_resilience ~rng ~n_trials:20 scenario));

  section "C1c" "§5 countermeasure — relay-prefix monitoring" (fun () ->
      let rng = Scenario.rng_for scenario "monitoring" in
      Countermeasures.print_monitoring fmt
        (Countermeasures.monitoring ~rng ~n_attacks:6 scenario));

  section "M2" "§2 long-term anonymity vs guard design" (fun () ->
      let rng = Scenario.rng_for scenario "long-term" in
      let horizon_days = if !scale = "small" then 120 else 90 in
      Long_term.print fmt (Long_term.compare_designs ~rng ~horizon_days scenario));

  section "X1" "RPKI/ROV deployment vs BGP attacks (§7)" (fun () ->
      let rng = Scenario.rng_for scenario "rov" in
      let n_trials = if !scale = "small" then 12 else 8 in
      Bgp_security.print fmt (Bgp_security.sweep ~rng ~n_trials scenario));

  section "X2" "routing asymmetry on the entry segment (§3.3)" (fun () ->
      let rng = Scenario.rng_for scenario "asymmetry" in
      Route_asymmetry.print fmt (Route_asymmetry.compute ~rng scenario));

  section "X3" "the convergence side channel (§3.1)" (fun () ->
      Convergence_leak.print fmt (Convergence_leak.compute (Lazy.force measurement)));

  section "GI" "guard inference (the §3.2 precursor)" (fun () ->
      let rng = Scenario.rng_for scenario "guard-inference" in
      List.iter
        (fun probes ->
           let config = { Guard_inference.default_config with Guard_inference.probes } in
           let rate =
             Guard_inference.success_rate ~rng ~config ~trials:150
               scenario.Scenario.consensus
           in
           Format.printf
             "  congestion probing, %d probes/candidate: guard identified in %.0f%% of trials@."
             probes (100. *. rate))
        [ 1; 3; 10 ]);

  (* ---------------- ablations (DESIGN.md §5) ----------------------- *)

  section "AB-reset" "ablation — session-reset filtering on/off" (fun () ->
      let short =
        { Dynamics.short_config with Dynamics.resets_per_session = 4. }
      in
      let tor_changes m =
        List.fold_left
          (fun acc (c : Measurement.cell) ->
             if Measurement.is_tor m c.Measurement.key.Measurement.prefix then
               acc + c.Measurement.path_changes
             else acc)
          0 m.Measurement.cells
      in
      let tor_updates m =
        List.fold_left
          (fun acc (c : Measurement.cell) ->
             if Measurement.is_tor m c.Measurement.key.Measurement.prefix then
               acc + c.Measurement.updates
             else acc)
          0 m.Measurement.cells
      in
      let with_filter = Measurement.run ~dynamics:short scenario in
      let without = Measurement.run ~dynamics:short ~no_filter:true scenario in
      Format.printf
        "  2-day run, Tor-prefix updates: %d filtered vs %d unfiltered (+%.0f%% artifacts)@."
        (tor_updates with_filter) (tor_updates without)
        (100.
         *. float_of_int (tor_updates without - tor_updates with_filter)
         /. float_of_int (max 1 (tor_updates with_filter)));
      Format.printf
        "  Tor-prefix path changes: %d filtered vs %d unfiltered — resets inflate the paper's headline metric@."
        (tor_changes with_filter) (tor_changes without));

  section "AB-threshold" "ablation — the 5-minute exposure rule" (fun () ->
      let m = Lazy.force measurement in
      List.iter
        (fun minutes ->
           let e = As_exposure.compute ~threshold:(minutes *. 60.) m in
           Format.printf
             "  threshold %5.1f min: >=2 extra ASes in %5.1f%% of cases, max %d@."
             minutes
             (100. *. e.As_exposure.frac_at_least_2)
             e.As_exposure.max_extras)
        [ 0.; 1.; 5.; 30. ]);

  section "AB-loss" "ablation — asymmetric correlation vs packet loss" (fun () ->
      let rng = Scenario.rng_for scenario "ab-loss" in
      List.iter
        (fun loss ->
           let lp (l : Onion.link_profile) = { l with Onion.loss } in
           let p = Onion.default_profile in
           let profile =
             { p with
               Onion.client_guard = lp p.Onion.client_guard;
               guard_middle = lp p.Onion.guard_middle;
               middle_exit = lp p.Onion.middle_exit;
               exit_server = lp p.Onion.exit_server }
           in
           let r = Asymmetric.run ~rng ~size:(8 * 1024 * 1024) ~profile () in
           let m = Asymmetric.deanonymize ~rng ~loss () in
           Format.printf
             "  loss %.3f%%: asymmetric r = %.4f, ack-ack r = %.4f, matching %d/%d@."
             (100. *. loss) r.Asymmetric.asymmetric_r r.Asymmetric.ack_ack_r
             m.Asymmetric.correct m.Asymmetric.n_flows)
        [ 0.; 0.001; 0.005; 0.02 ]);

  section "AB-guards" "ablation — guard-set size l" (fun () ->
      let exposure = As_exposure.compute (Lazy.force measurement) in
      List.iter
        (fun l ->
           let _, dynamic = Compromise.exposure_based ~f:0.05 ~l exposure in
           Format.printf "  l = %d guards: mean P[compromise] = %.3f@." l dynamic)
        [ 1; 3; 9 ]);

  section "AB-radius" "ablation — stealth-attack scope vs detectability" (fun () ->
      let rng = Scenario.rng_for scenario "ab-radius" in
      let guard = Path_selection.pick_guard ~rng scenario.Scenario.consensus in
      match Scenario.guard_announcement scenario guard with
      | None -> Format.printf "  (skipped: unrouted guard)@."
      | Some victim ->
          let attacker = Scenario.random_client_as ~rng scenario in
          let monitors = Scenario.monitors scenario in
          List.iter
            (fun (radius, t) ->
               Format.printf
                 "  radius %2d: captures %4d ASes, seen by %2d/%d monitor ASes (P[detect] %.2f)@."
                 radius
                 (List.length t.Community_attack.visible_at)
                 t.Community_attack.seen_by_monitors (List.length monitors)
                 (Community_attack.detection_probability t))
            (Community_attack.sweep_radius scenario.Scenario.indexed ~victim
               ~attacker ~monitors [ 1; 2; 3; 5; 8 ]));

  (* ---------------- Bechamel microbenchmarks ------------------------ *)
  if !micro && want "micro" then begin
    Format.printf "@.=== micro: Bechamel kernels (one per experiment) ===@.";
    let open Bechamel in
    (* small fixtures shared by the kernels *)
    let rng = Rng.of_int 7 in
    let small = Scenario.build ~seed:7 Scenario.Small in
    let ix = small.Scenario.indexed in
    let trie = Addressing.trie small.Scenario.addressing in
    let some_origin =
      match Addressing.announced small.Scenario.addressing with
      | (p, o) :: _ -> Announcement.originate o p
      | [] -> failwith "bench: scenario announced no prefixes"
    in
    let guard = Path_selection.pick_guard ~rng small.Scenario.consensus in
    let victim =
      match Scenario.guard_announcement small guard with
      | Some v -> v
      | None -> some_origin
    in
    let attacker = Scenario.random_client_as ~rng small in
    let mrt_blob =
      Mrt.encode
        (List.init 200 (fun i ->
             { Mrt.timestamp = float_of_int i;
               peer_as = Asn.of_int 64512; local_as = Asn.of_int 12654;
               peer_ip = Ipv4.of_string "192.0.2.1";
               local_ip = Ipv4.of_string "192.0.2.2";
               message =
                 Mrt.Update
                   { withdrawn = [];
                     as_path = [ Asn.of_int 64512; Asn.of_int 3356; Asn.of_int 24940 ];
                     next_hop = None; communities = [];
                     nlri = [ Prefix.of_string "78.46.0.0/15" ] } }))
    in
    let series_a = Array.init 256 (fun i -> float_of_int ((i * 31) mod 97)) in
    let series_b = Array.init 256 (fun i -> float_of_int ((i * 17) mod 89)) in
    let cmeasure = Measurement.run ~dynamics:Dynamics.short_config small in
    let addr = Ipv4.of_string "1.2.3.4" in
    (* A churny synthetic feed for the qs_serve hot path: 64 keys cycling
       through announces and withdrawals over a sub-window timescale, so
       the ring rolls, timers arm and evictions fire inside the kernel. *)
    let serve_feed =
      let session = { Update.collector = "rrc00"; peer = Asn.of_int 64512 } in
      let prefixes =
        Array.init 64 (fun i ->
            Prefix.make (Ipv4.of_int_trunc (0x0A000000 + (i * 65536))) 16)
      in
      let paths =
        [| [ Asn.of_int 1; Asn.of_int 2 ];
           [ Asn.of_int 3; Asn.of_int 1; Asn.of_int 2 ];
           [ Asn.of_int 4; Asn.of_int 2 ];
           [ Asn.of_int 5; Asn.of_int 4; Asn.of_int 2 ] |]
      in
      Array.init 2048 (fun i ->
          let time = float_of_int i in
          let p = prefixes.(i mod 64) in
          if i mod 7 = 0 then
            { Update.time; session; kind = Update.Withdraw p }
          else
            { Update.time; session;
              kind = Update.Announce (Route.make p paths.(i mod 4)) })
    in
    let serve_window =
      { Window.window = 120.; bucket = 60.; threshold = 60. }
    in
    let tests =
      Test.make_grouped ~name:"quicksand"
        [ Test.make ~name:"T1-tor-prefix-mapping"
            (Staged.stage (fun () ->
                 Tor_prefix.compute small.Scenario.addressing
                   small.Scenario.consensus));
          Test.make ~name:"F2L-concentration"
            (Staged.stage (fun () -> Concentration.compute small));
          Test.make ~name:"F3L-path-changes"
            (Staged.stage (fun () -> Path_changes.compute cmeasure));
          Test.make ~name:"F3R-as-exposure"
            (Staged.stage (fun () -> As_exposure.compute cmeasure));
          Test.make ~name:"M1-compromise-formula"
            (Staged.stage (fun () ->
                 Anonymity.multi_guard_probability ~f:0.05 ~x:12 ~l:3));
          Test.make ~name:"F2R-correlation-kernel"
            (Staged.stage (fun () -> Correlation.pearson series_a series_b));
          Test.make ~name:"A1-hijack"
            (Staged.stage (fun () ->
                 Hijack.same_prefix ix ~victim ~attacker ()));
          Test.make ~name:"A2-interception"
            (Staged.stage (fun () ->
                 Interception.run ix ~victim ~attacker ()));
          Test.make ~name:"C1-propagation"
            (Staged.stage (fun () -> Propagate.compute ix [ some_origin ]));
          (let ws = Propagate.Workspace.create () in
           Test.make ~name:"C1-propagation-ws"
             (Staged.stage (fun () ->
                  Propagate.compute ix ~workspace:ws [ some_origin ])));
          Test.make ~name:"substrate-lpm"
            (Staged.stage (fun () -> Prefix_trie.longest_match addr trie));
          Test.make ~name:"substrate-mrt-decode"
            (Staged.stage (fun () -> Mrt.decode mrt_blob));
          (* Trace-shaped churn: a full simulated day of heavy-tailed
             up/down renewals across 64 entities, the stream Dynamics
             consumes under churn=trace-pareto. *)
          Test.make ~name:"churn-trace-generate"
            (Staged.stage (fun () ->
                 Churn.generate ~rng:(Rng.of_int 11) Churn.pareto_day
                   ~entities:64 ~duration:86_400.));
          Test.make ~name:"M2-consensus-epochs"
            (Staged.stage (fun () ->
                 Consensus_dynamics.generate ~rng:(Rng.of_int 12)
                   ~gen:Consensus.small_params ~n_epochs:24
                   small.Scenario.graph small.Scenario.addressing
                   small.Scenario.consensus));
          (* The streaming service's sustained-ingestion kernels: 2048
             updates per run, so updates/sec = 2048 / time-per-run. *)
          Test.make ~name:"S1-serve-window-apply"
            (Staged.stage (fun () ->
                 let w =
                   Window.create ~config:serve_window
                     ~watched:(fun _ -> true) ()
                 in
                 Array.iter
                   (fun u -> ignore (Window.apply w u : Event.t list))
                   serve_feed));
          Test.make ~name:"S1-serve-ingest-pipeline"
            (Staged.stage (fun () ->
                 let i = Ingest.create () in
                 let w =
                   Window.create ~config:serve_window
                     ~watched:(fun _ -> true) ()
                 in
                 let apply u = ignore (Window.apply w u : Event.t list) in
                 Array.iter
                   (fun u ->
                      ignore (Ingest.push i u : Ingest.push_result);
                      List.iter apply (Ingest.ready i))
                   serve_feed;
                 List.iter apply (Ingest.flush i))) ]
    in
    print_estimates (estimates tests);

    (* The valley-free closure is the substrate of every Qs_static bound,
       and the one kernel already expected to work at CAIDA scale — so it
       is benchmarked on the harness's main scenario (2 362 ASes at the
       default paper scale), not the small fixture, and the result is
       extrapolated to a 47k-AS graph under the O(V+E) cost model at the
       measured links-per-AS ratio. *)
    Format.printf "@.=== micro: valley-free closure kernel (Qs_static substrate) ===@.";
    let main_ix = scenario.Scenario.indexed in
    let n_main = As_graph.num_ases scenario.Scenario.graph in
    let m_main = As_graph.num_links scenario.Scenario.graph in
    let reach = Reach.create main_ix in
    let closure_sources =
      As_graph.ases scenario.Scenario.graph |> Array.of_list
    in
    let next_src = ref 0 in
    (* The delta-step kernel sits next to the closure row because the two
       are the per-event costs of the static and dynamic pipelines: one
       flap = one fail repair + one restore repair on a warm state,
       rotating through the link list so the kernel is not measured on
       one lucky subtree. *)
    let delta_st = Propagate.Delta.create main_ix in
    let delta_scratch = Propagate.Delta.create_scratch () in
    let delta_origin = closure_sources.(0) in
    let delta_ann =
      [ Announcement.originate delta_origin (Prefix.of_string "10.9.0.0/16") ]
    in
    let (_ : Propagate.t * Propagate.Delta.kind) =
      Propagate.Delta.update delta_st delta_scratch delta_ann
    in
    let delta_links =
      As_graph.links scenario.Scenario.graph
      |> List.filter (fun (a, b, _) ->
          not (Asn.equal a delta_origin) && not (Asn.equal b delta_origin))
      |> Array.of_list
    in
    let next_link = ref 0 in
    let closure_name = Printf.sprintf "reach-closure-%d-ases" n_main in
    let closure_tests =
      Test.make_grouped ~name:"quicksand"
        [ Test.make ~name:closure_name
            (Staged.stage (fun () ->
                 (* rotate the source so the kernel is not measured on one
                    lucky BFS shape *)
                 let src =
                   closure_sources.(!next_src mod Array.length closure_sources)
                 in
                 incr next_src;
                 Reach.compute reach src));
          Test.make ~name:(Printf.sprintf "delta-step-flap-%d-ases" n_main)
            (Staged.stage (fun () ->
                 let a, b, _ =
                   delta_links.(!next_link mod Array.length delta_links)
                 in
                 incr next_link;
                 let failed = Link_set.of_list main_ix [ (a, b) ] in
                 ignore
                   (Propagate.Delta.update delta_st delta_scratch ~failed
                      delta_ann);
                 ignore
                   (Propagate.Delta.update delta_st delta_scratch delta_ann))) ]
    in
    let rows = estimates closure_tests in
    print_estimates rows;
    (match List.assoc_opt ("quicksand/" ^ closure_name) rows with
     | Some (Some t) ->
         (* O(V+E) model: scale both nodes and links by 47k/V (links/AS
            ratio held at the measured value). *)
         let t47 = t *. 47_000. /. float_of_int n_main in
         Format.printf
           "  extrapolated to 47k ASes (%d links/AS held): %.1f ms per \
            closure, %.1f s for an all-AS closure cache@."
           (int_of_float
              (Float.round (2. *. float_of_int m_main /. float_of_int n_main)))
           (t47 /. 1e6)
           (t47 *. 47_000. /. 1e9)
     | Some None | None -> ());

    (* The month-dynamics kernels each run a whole simulated day
       (~0.2–0.5 s), so they get their own, longer quota — the default
       0.5 s would fit a single run. The three rows time the same day
       three ways: with delta repair, with every request a full compute
       (delta = false; the `ab-delta` sweep entry holds the
       byte-identity half), and with delta repair but the metrics
       registry switched off (the `ab-obs` entry; acceptance: the
       registry costs < 2%). *)
    Format.printf "@.=== micro: month-dynamics kernel, delta vs full vs obs-off ===@.";
    let dyn_cfg =
      { Dynamics.short_config with
        Dynamics.duration = 1. *. 86_400.;
        base_churn_rate = 0.5;
        mean_outage = 5.;
        mean_global_outage = 5. }
    in
    let dyn_day cfg () =
      Dynamics.run ~rng:(Rng.of_int 11) cfg small.Scenario.world ~emit:ignore
    in
    let dyn_tests =
      Test.make_grouped ~name:"quicksand"
        [ Test.make ~name:"F3L-dynamics-delta" (Staged.stage (dyn_day dyn_cfg));
          Test.make ~name:"F3L-dynamics-full"
            (Staged.stage
               (dyn_day { dyn_cfg with Dynamics.delta = false }));
          Test.make ~name:"F3L-dynamics-delta-obs-off"
            (Staged.stage (fun () ->
                 Metrics.set_enabled false;
                 Fun.protect
                   ~finally:(fun () -> Metrics.set_enabled true)
                   (dyn_day dyn_cfg))) ]
    in
    print_estimates (estimates ~quota:5. ~limit:50 dyn_tests);

    (* Scheduling overhead of Pool.map on tiny tasks: mapping 8192 trivial
       items stresses chunk bookkeeping, not the work itself. chunk=1 is
       the pathological regime (one queue slot per item); larger chunks
       amortize it away. The baseline row is a plain Array.map. *)
    Format.printf "@.=== micro: Pool.map tiny-task overhead (chunking) ===@.";
    let items = Array.init 8192 (fun i -> i) in
    let tiny x = (x * 2654435761) lxor (x lsr 7) in
    let pool1 = Pool.create ~jobs:1 () in
    let pool2 = Pool.create ~jobs:2 () in
    let pool_kernel pool chunk =
      Staged.stage (fun () -> Pool.map ~chunk pool tiny items)
    in
    let pool_tests =
      Test.make_grouped ~name:"pool"
        (Test.make ~name:"baseline-array-map"
           (Staged.stage (fun () -> Array.map tiny items))
         :: List.concat_map
              (fun (label, pool) ->
                 List.map
                   (fun chunk ->
                      Test.make
                        ~name:(Printf.sprintf "map-%s-chunk%04d" label chunk)
                        (pool_kernel pool chunk))
                   [ 1; 64; 512 ])
              [ ("jobs1", pool1); ("jobs2", pool2) ])
    in
    print_estimates (estimates pool_tests);
    Pool.shutdown pool1;
    Pool.shutdown pool2
  end;
  Format.printf "@.done in %.1f s@." (Clock.now () -. t0)

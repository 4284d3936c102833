(* quicksand — command-line front end for the AS-level Tor attack toolkit.

   Each subcommand reproduces one experiment of "Anonymity on QuickSand"
   (HotNets-XIII 2014) on a freshly built (seeded) scenario. *)

open Cmdliner

let fmt = Format.std_formatter

(* ---- common options -------------------------------------------------- *)

let seed =
  let doc = "Experiment seed; equal seeds give identical scenarios." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let scale =
  let doc = "Scenario size: $(b,paper) (~2400 ASes, 4586 relays) or $(b,small)." in
  Arg.(value & opt (enum [ ("paper", Scenario.Paper); ("small", Scenario.Small) ])
         Scenario.Small
       & info [ "scale" ] ~docv:"SIZE" ~doc)

(* [conv] narrowed to the values [ok] accepts; anything else is a parse
   error, so Cmdliner prints [msg] with the usage line and exits 124. *)
let checked conv ok msg =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%s, got %s" msg s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let at_least lo =
  checked Arg.int (fun n -> n >= lo) (Printf.sprintf "must be >= %d" lo)

(* A simulated duration in (0, hi]: NaN would spin the Poisson sampler
   until the heap runs out, and a negative or infinite one raises. *)
let duration_conv hi =
  checked Arg.float
    (fun d -> Float.is_finite d && d > 0. && d <= hi)
    (Printf.sprintf "must be a finite number in (0, %g]" hi)

let days =
  let doc = "Simulated measurement duration in days, in (0, 366]." in
  Arg.(value & opt (duration_conv 366.) 2.
       & info [ "days" ] ~docv:"DAYS" ~doc)

let json_flag =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit machine-readable JSON instead of text.")

let jobs =
  let doc =
    Printf.sprintf
      "Worker domains for parallel sweeps, in [1, %d]. Results are \
       byte-identical at any value; the default is what the runtime \
       recommends for this machine."
      Pool.max_jobs
  in
  let jobs_conv =
    checked Arg.int
      (fun j -> j >= 1 && j <= Pool.max_jobs)
      (Printf.sprintf "must be in [1, %d]" Pool.max_jobs)
  in
  Arg.(value & opt (some jobs_conv) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Shared per-flag definitions for options that several subcommands take.
   One definition per flag keeps names, docv and defaults from drifting
   between commands (the old copy-per-command style had three private
   [--trials] and three private [-o]). *)

let output_file =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to a file instead of stdout.")

let trials_arg ?(doc = "Attack trials.") default =
  Arg.(value & opt (at_least 1) default & info [ "trials" ] ~docv:"N" ~doc)

(* Companion of [output_file]: dump [data] where the flag points. *)
let dump out data =
  match out with
  | None -> print_string data
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc data);
      Format.printf "wrote %s@." path

(* ---- observability reports ------------------------------------------- *)

let metrics_file =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a human-readable metrics report to $(docv) after the \
                 command finishes ($(b,-) for stdout).")

let metrics_json_file =
  Arg.(value & opt (some string) None
       & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write the qs-obs/1 JSON metrics report to $(docv) ($(b,-) \
                 for stdout). Counts are deterministic for a given seed; \
                 timing lives in dedicated fields.")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Enable span tracing and write the JSON trace to $(docv) \
                 ($(b,-) for stdout).")

let obs_opts =
  let combine metrics metrics_json trace = (metrics, metrics_json, trace) in
  Term.(const combine $ metrics_file $ metrics_json_file $ trace_file)

let write_report path pp =
  match path with
  | "-" ->
      pp Format.std_formatter;
      Format.pp_print_flush Format.std_formatter ()
  | path ->
      Out_channel.with_open_text path (fun oc ->
          let ppf = Format.formatter_of_out_channel oc in
          pp ppf;
          Format.pp_print_flush ppf ());
      Format.eprintf "wrote %s@." path

(* Wrap a command body so the requested observability reports are
   written when it finishes — also on failure, so a crashed sweep still
   leaves its metrics behind. Callers that set exit codes must do so
   after this returns ([Stdlib.exit] would skip the reports). *)
let with_obs (metrics, metrics_json, trace) f =
  if trace <> None then Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      (match (metrics, metrics_json) with
       | None, None -> ()
       | _ ->
           let samples = Metrics.snapshot () in
           Option.iter
             (fun p ->
               write_report p (fun ppf -> Export.metrics_text ppf samples))
             metrics;
           Option.iter
             (fun p ->
               write_report p (fun ppf -> Export.metrics_json ppf samples))
             metrics_json);
      Option.iter
        (fun p ->
          let spans = Span.drain () in
          write_report p (fun ppf -> Export.trace_json ppf spans);
          Span.set_enabled false)
        trace)
    f

(* Run [f] over a fresh pool sized by --jobs (default: the runtime's
   recommendation) and print the executor stats afterwards. *)
let with_exec ?(show_stats = true) jobs f =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  Pool.with_pool ~jobs (fun exec ->
      let r = f exec in
      if show_stats then Format.printf "%a@." Pool.pp_stats (Pool.stats exec);
      r)

let build_scenario seed scale =
  let s = Scenario.build ~seed scale in
  Format.printf
    "scenario: %d ASes, %d links, %d prefixes, %d relays, %d collector sessions (seed %d)@."
    (As_graph.num_ases s.Scenario.graph)
    (As_graph.num_links s.Scenario.graph)
    (Addressing.count s.Scenario.addressing)
    (Consensus.n_relays s.Scenario.consensus)
    (List.length (Scenario.sessions s))
    seed;
  s

let dynamics_for days =
  { Dynamics.default_config with Dynamics.duration = days *. 86_400. }

let measure scenario days =
  Format.printf "simulating %.1f days of BGP...@." days;
  Measurement.run ~dynamics:(dynamics_for days) scenario

(* ---- subcommands ------------------------------------------------------ *)

let dataset_cmd =
  let run seed scale days =
    let s = build_scenario seed scale in
    Dataset.print fmt (Dataset.compute (measure s days))
  in
  Cmd.v (Cmd.info "dataset" ~doc:"T1: the §4 dataset summary table")
    Term.(const run $ seed $ scale $ days)

let concentration_cmd =
  let run seed scale =
    let s = build_scenario seed scale in
    Concentration.print fmt (Concentration.compute s)
  in
  Cmd.v (Cmd.info "concentration" ~doc:"F2L: relay concentration across ASes")
    Term.(const run $ seed $ scale)

let path_changes_cmd =
  let run seed scale days jobs obs =
    with_obs obs (fun () ->
        let s = build_scenario seed scale in
        let m = measure s days in
        Format.printf "%a@." Measurement.pp_dynamics_summary m;
        with_exec jobs (fun exec ->
            Path_changes.print fmt (Path_changes.compute ~exec m)))
  in
  Cmd.v (Cmd.info "path-changes" ~doc:"F3L: Tor-prefix path-change CCDF")
    Term.(const run $ seed $ scale $ days $ jobs $ obs_opts)

let extra_ases_cmd =
  let run seed scale days threshold jobs obs =
    with_obs obs (fun () ->
        let s = build_scenario seed scale in
        let m = measure s days in
        with_exec jobs (fun exec ->
            As_exposure.print fmt (As_exposure.compute ~threshold ~exec m)))
  in
  let threshold =
    let threshold_conv =
      checked Arg.float
        (fun t -> Float.is_finite t && t >= 0.)
        "must be a finite number >= 0"
    in
    Arg.(value & opt threshold_conv 300. & info [ "threshold" ] ~docv:"SECONDS"
           ~doc:"Residency threshold for an AS to count as exposed.")
  in
  Cmd.v (Cmd.info "extra-ases" ~doc:"F3R: extra-ASes-over-time CCDF")
    Term.(const run $ seed $ scale $ days $ threshold $ jobs $ obs_opts)

let compromise_cmd =
  let run seed jobs obs =
    with_obs obs (fun () ->
        let rng = Rng.of_int seed in
        with_exec jobs (fun exec ->
            Compromise.print fmt (Compromise.compute ~rng ~exec ())))
  in
  Cmd.v (Cmd.info "compromise" ~doc:"M1: the 1-(1-f)^(l*x) model, checked by Monte-Carlo")
    Term.(const run $ seed $ jobs $ obs_opts)

let asym_cmd =
  let run seed mb flows =
    let rng = Rng.of_int seed in
    let r = Asymmetric.run ~rng ~size:(mb * 1024 * 1024) () in
    Asymmetric.print fmt r;
    Asymmetric.print_matching fmt (Asymmetric.deanonymize ~rng ~n_flows:flows ())
  in
  let mb =
    Arg.(value & opt (at_least 1) 40 & info [ "mb" ] ~docv:"MB"
           ~doc:"Transfer size.")
  in
  let flows =
    Arg.(value & opt (at_least 2) 6 & info [ "flows" ] ~docv:"N"
           ~doc:"Concurrent circuits in the matching experiment.")
  in
  Cmd.v (Cmd.info "asym" ~doc:"F2R: asymmetric traffic analysis on a simulated circuit")
    Term.(const run $ seed $ mb $ flows)

let hijack_cmd =
  let run seed scale trials clients =
    let s = build_scenario seed scale in
    let rng = Scenario.rng_for s "hijack" in
    Deanonymization.print_hijack fmt
      (Deanonymization.hijack ~rng ~n_trials:trials ~n_clients:clients s)
  in
  let trials = trials_arg 20 in
  let clients =
    Arg.(value & opt (at_least 1) 40 & info [ "clients" ] ~docv:"N"
           ~doc:"Clients per trial.")
  in
  Cmd.v (Cmd.info "hijack" ~doc:"A1: guard-prefix hijack and anonymity sets")
    Term.(const run $ seed $ scale $ trials $ clients)

let intercept_cmd =
  let run seed scale trials =
    let s = build_scenario seed scale in
    let rng = Scenario.rng_for s "interception" in
    Deanonymization.print_interception fmt
      (Deanonymization.interception ~rng ~n_trials:trials s)
  in
  let trials = trials_arg 20 in
  Cmd.v (Cmd.info "intercept" ~doc:"A2: guard-prefix interception and deanonymization")
    Term.(const run $ seed $ scale $ trials)

let defend_cmd =
  let run seed scale =
    let s = build_scenario seed scale in
    Countermeasures.print_selection fmt
      (Countermeasures.selection ~rng:(Scenario.rng_for s "selection") s);
    Countermeasures.print_stealth fmt
      (Countermeasures.stealth_resilience ~rng:(Scenario.rng_for s "stealth") s);
    Countermeasures.print_monitoring fmt
      (Countermeasures.monitoring ~rng:(Scenario.rng_for s "monitoring") s)
  in
  Cmd.v (Cmd.info "defend" ~doc:"C1: evaluate the §5 countermeasures")
    Term.(const run $ seed $ scale)

let rov_cmd =
  let run seed scale trials =
    let s = build_scenario seed scale in
    let rng = Scenario.rng_for s "rov" in
    Bgp_security.print fmt (Bgp_security.sweep ~rng ~n_trials:trials s)
  in
  let trials = trials_arg ~doc:"Trials per point." 10 in
  Cmd.v (Cmd.info "rov" ~doc:"X1: RPKI/ROV deployment vs hijack and interception")
    Term.(const run $ seed $ scale $ trials)

let asymmetry_cmd =
  let run seed scale pairs =
    let s = build_scenario seed scale in
    let rng = Scenario.rng_for s "asymmetry" in
    Route_asymmetry.print fmt (Route_asymmetry.compute ~rng ~n_pairs:pairs s)
  in
  let pairs =
    Arg.(value & opt (at_least 0) 40 & info [ "pairs" ] ~docv:"N" ~doc:"(client, guard) pairs.")
  in
  Cmd.v (Cmd.info "asymmetry" ~doc:"X2: forward vs reverse AS exposure (§3.3)")
    Term.(const run $ seed $ scale $ pairs)

let long_term_cmd =
  let run seed scale horizon consensus jobs obs =
    with_obs obs (fun () ->
        let s = build_scenario seed scale in
        with_exec jobs (fun exec ->
            match consensus with
            | `Frozen ->
                let rng = Scenario.rng_for s "long-term" in
                Long_term.print fmt
                  (Long_term.compare_designs ~rng ~horizon_days:horizon ~exec s)
            | (`Live_hourly | `Live_heavy) as c ->
                (* Frozen vs living under the stock 3/30 design: both arms
                   replay the same stream (fresh "long-term" RNG each), so
                   the adversary draw and client streams match and the
                   delta is attributable to consensus dynamics alone. *)
                let params =
                  match c with
                  | `Live_hourly -> Consensus_dynamics.default_params
                  | `Live_heavy -> Consensus_dynamics.heavy_params
                in
                let config =
                  { Long_term.default_config with
                    Long_term.horizon_days = horizon }
                in
                let living =
                  Long_term.living_consensus ~params ~horizon_days:horizon s
                in
                let frozen_o =
                  Long_term.run ~rng:(Scenario.rng_for s "long-term")
                    ~config ~exec s
                in
                let living_o =
                  Long_term.run ~rng:(Scenario.rng_for s "long-term")
                    ~config ~living ~exec s
                in
                Long_term.print fmt
                  [ { frozen_o with
                      Long_term.label =
                        frozen_o.Long_term.label ^ ", frozen" };
                    { living_o with
                      Long_term.label =
                        living_o.Long_term.label ^ ", living" } ]))
  in
  let horizon =
    Arg.(value & opt (at_least 1) 120 & info [ "horizon" ] ~docv:"DAYS"
           ~doc:"Days of daily communication to simulate.")
  in
  let consensus =
    Arg.(value
         & opt (enum [ ("frozen", `Frozen); ("live-hourly", `Live_hourly);
                       ("live-heavy", `Live_heavy) ])
             `Frozen
         & info [ "consensus" ] ~docv:"MODEL"
             ~doc:"Consensus model: $(b,frozen) (the snapshot, §2 design \
                   comparison), or $(b,live-hourly)/$(b,live-heavy) \
                   (hourly epochs with relay arrival, departure and \
                   bandwidth drift — prints the frozen-vs-living pair for \
                   the stock guard design).")
  in
  Cmd.v (Cmd.info "long-term" ~doc:"M2: guard designs vs long-term AS-level compromise")
    Term.(const run $ seed $ scale $ horizon $ consensus $ jobs $ obs_opts)

let topology_cmd =
  let run seed scale out =
    let s = build_scenario seed scale in
    dump out (As_graph.to_caida_string s.Scenario.graph)
  in
  Cmd.v (Cmd.info "topology" ~doc:"Dump the AS graph in CAIDA as-rel format")
    Term.(const run $ seed $ scale $ output_file)

let consensus_cmd =
  let run seed scale out =
    let s = build_scenario seed scale in
    dump out (Consensus.to_string s.Scenario.consensus)
  in
  Cmd.v (Cmd.info "consensus" ~doc:"Dump the synthetic Tor consensus")
    Term.(const run $ seed $ scale $ output_file)

let mrt_cmd =
  let run seed scale hours out =
    let s = build_scenario seed scale in
    let dynamics =
      { Dynamics.short_config with Dynamics.duration = hours *. 3600. }
    in
    let rng = Scenario.rng_for s "mrt-dump" in
    let buf = Buffer.create (1 lsl 20) in
    let local_ip = Ipv4.of_string "192.0.2.254" in
    let session_ip =
      Scenario.sessions s
      |> List.map (fun (sess : Collector.session) ->
          (sess.Collector.id, sess.Collector.peer_ip))
    in
    let count = ref 0 in
    let emit (u : Update.t) =
      let peer_ip =
        match
          List.find_opt (fun (id, _) -> Update.session_equal id u.Update.session)
            session_ip
        with
        | Some (_, ip) -> ip
        | None -> local_ip
      in
      Mrt.encode_record buf
        (Mrt.record_of_update ~local_as:(Asn.of_int 12654) ~local_ip ~peer_ip u);
      incr count
    in
    let _, stats = Dynamics.run ~rng dynamics s.Scenario.world ~emit in
    let data = Buffer.contents buf in
    Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc data);
    Format.printf
      "wrote %s: %d MRT records (%d bytes) from %d churn events; decode check: %d records@."
      out !count (String.length data) stats.Dynamics.churn_events
      (List.length (Mrt.decode data))
  in
  let hours =
    Arg.(value & opt (duration_conv (366. *. 24.)) 4.
         & info [ "hours" ] ~docv:"H"
           ~doc:"Simulated duration of the dump.")
  in
  let out =
    Arg.(value & opt string "updates.mrt" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output MRT file.")
  in
  Cmd.v
    (Cmd.info "mrt-dump"
       ~doc:"Simulate collector sessions and write their updates as an MRT file")
    Term.(const run $ seed $ scale $ hours $ out)

let lint_cmd =
  let run seed scale json rules fail_on max_prefixes no_determinism list_rules
      explain jobs obs =
    if list_rules then
      List.sort
        (fun (a : Diag.rule) (b : Diag.rule) ->
           String.compare a.Diag.code b.Diag.code)
        Lint.all_rules
      |> List.iter (fun (r : Diag.rule) ->
          Format.printf "%-10s %-26s %-5s %s@." r.Diag.code r.Diag.slug
            (Diag.severity_to_string r.Diag.severity) r.Diag.doc)
    else match explain with
    | Some sel -> (
        match Lint.find_rule sel with
        | None ->
            Format.eprintf
              "quicksand: unknown lint rule %S (try --list-rules)@." sel;
            Stdlib.exit 2
        | Some r ->
            Format.printf "@[<v>%s %s (%s)@,%s@,@,@[<hov>%a@]@]@."
              r.Diag.code r.Diag.slug
              (Diag.severity_to_string r.Diag.severity) r.Diag.doc
              Format.pp_print_text r.Diag.explain)
    | None -> begin
      if max_prefixes <= 0 then begin
        Format.eprintf "quicksand: --max-prefixes must be positive@.";
        Stdlib.exit 2
      end;
      (match rules with
       | None -> ()
       | Some sels ->
           List.iter
             (fun sel ->
                if Lint.find_rule sel = None then begin
                  Format.eprintf
                    "quicksand: unknown lint rule %S (try --list-rules)@." sel;
                  Stdlib.exit 2
                end)
             sels);
      (* The exit code is decided inside [with_obs] but acted on after
         it returns: [Stdlib.exit] would skip the report writers. *)
      let code =
        with_obs obs (fun () ->
            let s = Scenario.build ~seed scale in
            if not json then
              Format.printf
                "linting scenario: %d ASes, %d prefixes, %d relays (seed %d)@."
                (As_graph.num_ases s.Scenario.graph)
                (Addressing.count s.Scenario.addressing)
                (Consensus.n_relays s.Scenario.consensus) seed;
            let diags =
              (* Stats would corrupt --json output, so only text mode prints
                 them; the exit below must also happen after the pool is torn
                 down, hence outside [with_exec]. *)
              with_exec ~show_stats:(not json) jobs (fun exec ->
                  Lint.run ?rules ~max_prefixes
                    ~determinism:(not no_determinism) ~exec s)
            in
            if json then Diag.report_json fmt diags
            else Diag.report_text fmt diags;
            Diag.exit_code ~fail_on diags)
      in
      if code <> 0 then Stdlib.exit code
    end
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit machine-readable JSON diagnostics instead of text.")
  in
  let rules =
    Arg.(value & opt (some (list string)) None & info [ "rules" ] ~docv:"RULES"
           ~doc:"Comma-separated rule selectors (codes like $(b,QS001), slugs \
                 like $(b,valley-violation), or both combined); default all.")
  in
  let fail_on =
    Arg.(value
         & opt (enum [ ("warn", Diag.Warn); ("warning", Diag.Warn);
                       ("error", Diag.Error) ])
             Diag.Error
         & info [ "fail-on" ] ~docv:"SEVERITY"
             ~doc:"Exit non-zero if a diagnostic of at least this severity \
                   is found: $(b,warn) (or $(b,warning)) or $(b,error).")
  in
  let max_prefixes =
    Arg.(value & opt int 512 & info [ "max-prefixes" ] ~docv:"N"
           ~doc:"Bound on announced prefixes whose routing tables are \
                 recomputed and checked (evenly sampled beyond it).")
  in
  let no_determinism =
    Arg.(value & flag & info [ "no-determinism" ]
           ~doc:"Skip the QS301 rebuild-and-compare determinism check \
                 (saves one scenario build).")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ]
           ~doc:"Print the rule registry (sorted by code) and exit.")
  in
  let explain =
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULE"
           ~doc:"Print one rule's full rationale (selected by code, slug or \
                 combined id) and exit.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify routing-world invariants of a seeded scenario")
    Term.(const run $ seed $ scale $ json $ rules $ fail_on $ max_prefixes
          $ no_determinism $ list_rules $ explain $ jobs $ obs_opts)

let surface_cmd =
  let run seed scale n_pairs n_adversaries json jobs obs =
    with_obs obs (fun () ->
        let s = Scenario.build ~seed scale in
        if not json then
          Format.printf
            "surface: %d ASes, %d relays (seed %d)@."
            (As_graph.num_ases s.Scenario.graph)
            (Consensus.n_relays s.Scenario.consensus) seed;
        let g = s.Scenario.graph in
        let rng = Scenario.rng_for s "surface" in
        (* Monitored pairs: plausible client stubs x guard-prefix origins,
           drawn from the scenario's dedicated "surface" RNG stream. *)
        let guards = s.Scenario.consensus.Consensus.guard_pool in
        let pairs =
          let rec go acc k =
            if k = 0 then List.rev acc
            else
              let client = Scenario.random_client_as ~rng s in
              let relay = Rng.pick rng guards in
              match
                Tor_prefix.prefix_of_relay s.Scenario.tor_prefixes relay
              with
              | Some (_, origin) -> go ((client, origin) :: acc) (k - 1)
              | None -> go acc (k - 1) (* unrouted relay: drop the draw *)
          in
          go [] n_pairs
        in
        (* Candidate adversaries: the high-degree transit core (the ASes
           best placed to win propagation races) plus a sample of stubs
           as a baseline. *)
        let adversaries =
          let by_degree =
            As_graph.ases g
            |> List.sort (fun a b ->
                match Int.compare (As_graph.degree g b) (As_graph.degree g a)
                with
                | 0 -> Asn.compare a b
                | c -> c)
          in
          let core = List.filteri (fun i _ -> i < (n_adversaries + 1) / 2)
              by_degree in
          let stubs =
            As_graph.ases g
            |> List.filter (fun a ->
                (As_graph.info g a).As_graph.tier = As_graph.Stub)
            |> Array.of_list
          in
          let sampled =
            Rng.sample_without_replacement rng
              (min (n_adversaries / 2) (Array.length stubs))
              stubs
          in
          Asn.Set.elements (Asn.Set.of_list (core @ sampled))
        in
        let surfaces =
          Pool.per_domain (fun () -> Static_surface.create s.Scenario.indexed)
        in
        let feas, exposure_sizes, mean_resilience =
          Span.with_ ~name:"surface" (fun () ->
              with_exec ~show_stats:(not json) jobs (fun exec ->
                  let feas =
                    Pool.map_list exec
                      (fun a ->
                         Static_surface.feasibility (Pool.get surfaces) ~pairs a)
                      adversaries
                  in
                  let sizes =
                    Pool.map_list exec
                      (fun (client, guard) ->
                         Asn.Set.cardinal
                           (Static_surface.exposure_bound (Pool.get surfaces)
                              ~client ~guard))
                      pairs
                  in
                  let resilience =
                    Pool.map_list exec
                      (fun (client, guard) ->
                         Static_surface.resilience (Pool.get surfaces)
                           ~adversaries ~victim:guard client)
                      pairs
                  in
                  let mean l =
                    match l with
                    | [] -> 0.
                    | _ ->
                        List.fold_left ( +. ) 0. l
                        /. float_of_int (List.length l)
                  in
                  (feas, sizes, mean resilience)))
        in
        let feas =
          List.sort
            (fun (a : Static_surface.feasibility) b ->
               match Int.compare b.Static_surface.intercept
                       a.Static_surface.intercept
               with
               | 0 -> Asn.compare a.Static_surface.adversary
                        b.Static_surface.adversary
               | c -> c)
            feas
        in
        let frac n (f : Static_surface.feasibility) =
          if f.Static_surface.pairs = 0 then 0.
          else float_of_int n /. float_of_int f.Static_surface.pairs
        in
        let sorted_sizes = List.sort Int.compare exposure_sizes in
        let nth_size q =
          match sorted_sizes with
          | [] -> 0
          | l -> List.nth l (q * (List.length l - 1) / 100)
        in
        let disconnected =
          List.length (List.filter (fun n -> n = 0) exposure_sizes)
        in
        if json then begin
          Format.printf "{\"pairs\":%d,\"adversaries\":%d,@\n"
            (List.length pairs) (List.length adversaries);
          Format.printf
            " \"exposure\":{\"min\":%d,\"median\":%d,\"max\":%d,\"disconnected\":%d},@\n"
            (nth_size 0) (nth_size 50) (nth_size 100) disconnected;
          Format.printf " \"mean_resilience\":%.6f,@\n \"bounds\":[@\n"
            mean_resilience;
          List.iteri
            (fun i (f : Static_surface.feasibility) ->
               Format.printf
                 "  {\"adversary\":%d,\"tier\":%S,\"degree\":%d,\
                  \"blackhole_subprefix\":%.6f,\"blackhole_same_prefix\":%.6f,\
                  \"intercept\":%.6f}%s@\n"
                 (Asn.to_int f.Static_surface.adversary)
                 (As_graph.tier_to_string
                    (As_graph.info g f.Static_surface.adversary).As_graph.tier)
                 (As_graph.degree g f.Static_surface.adversary)
                 (frac f.Static_surface.blackhole_subprefix f)
                 (frac f.Static_surface.blackhole_same_prefix f)
                 (frac f.Static_surface.intercept f)
                 (if i = List.length feas - 1 then "" else ","))
            feas;
          Format.printf " ]}@."
        end
        else begin
          Format.printf
            "monitored pairs: %d (%d statically disconnected)@."
            (List.length pairs) disconnected;
          Format.printf
            "exposure bound size min/median/max: %d / %d / %d ASes@."
            (nth_size 0) (nth_size 50) (nth_size 100);
          Format.printf
            "mean client resilience vs the %d candidates: %.3f@.@."
            (List.length adversaries) mean_resilience;
          Format.printf "%-10s %-8s %6s %15s %16s %10s@." "adversary" "tier"
            "degree" "blackhole(sub)" "blackhole(same)" "intercept";
          List.iter
            (fun (f : Static_surface.feasibility) ->
               Format.printf "%-10s %-8s %6d %15.3f %16.3f %10.3f@."
                 (Asn.to_string f.Static_surface.adversary)
                 (As_graph.tier_to_string
                    (As_graph.info g f.Static_surface.adversary).As_graph.tier)
                 (As_graph.degree g f.Static_surface.adversary)
                 (frac f.Static_surface.blackhole_subprefix f)
                 (frac f.Static_surface.blackhole_same_prefix f)
                 (frac f.Static_surface.intercept f))
            feas
        end)
  in
  let n_pairs =
    Arg.(value & opt (at_least 0) 40 & info [ "pairs" ] ~docv:"N"
           ~doc:"Monitored (client, guard) pairs to draw.")
  in
  let n_adversaries =
    Arg.(value & opt (at_least 0) 20 & info [ "adversaries" ] ~docv:"N"
           ~doc:"Candidate adversary ASes (top-degree core plus sampled \
                 stubs).")
  in
  Cmd.v
    (Cmd.info "surface"
       ~doc:"Static attack surface: per-adversary upper bounds on \
             blackhole/interception reach, without simulating a single \
             churn day")
    Term.(const run $ seed $ scale $ n_pairs $ n_adversaries $ json_flag
          $ jobs $ obs_opts)

let serve_cmd =
  let run seed scale days window bucket threshold slack queue chunk attacks
      replay mrt_file collector events verify quiet jobs obs =
    if replay && mrt_file <> None then begin
      Format.eprintf "quicksand: --replay and --mrt are mutually exclusive@.";
      Stdlib.exit 2
    end;
    let config =
      { Serve.Config.default with
        Serve.Config.window; bucket; threshold; slack;
        capacity = queue; chunk }
    in
    (* An event sink per --events: "-" streams JSON lines to stdout (left
       open); a path gets its own channel, closed after the serve loop
       has closed the sink. *)
    let sinks_of () =
      match events with
      | None -> ([], fun () -> ())
      | Some "-" -> ([ Sink.jsonl ~name:"stdout" stdout ], fun () -> flush stdout)
      | Some path ->
          let oc = open_out path in
          ( [ Sink.jsonl ~name:path oc ],
            fun () ->
              close_out oc;
              Format.eprintf "wrote %s@." path )
    in
    let print_alerts alerts =
      List.iter (fun a -> Format.printf "%a@." Alert.pp a) alerts
    in
    (* Lint the effective config before anything runs (against the
       scenario when replaying): QS307 failures are config typos, not
       simulation bugs, and [Serve.create] would reject them anyway. *)
    let linted ?scenario k =
      match Serve_lint.check ?scenario (Serve.Config.view config) with
      | [] -> k ()
      | diags ->
          Diag.report_text fmt diags;
          2
    in
    let code =
      with_obs obs (fun () ->
          match mrt_file with
          | Some path ->
              (* Live mode: decode a recorded MRT feed and stream it
                 through the service. No scenario, so no baselines — the
                 window accumulates and the detectors watch, but the
                 extra-AS rule (which needs a time-0 table) stays idle. *)
              linted @@ fun () ->
              let data = In_channel.with_open_bin path In_channel.input_all in
              with_exec ~show_stats:false jobs (fun exec ->
                  match
                    Ingest.decode_mrt ~chunk:config.Serve.Config.chunk
                      ~collector ~exec data
                  with
                  | exception Mrt.Malformed msg ->
                      Format.eprintf "quicksand: %s: malformed MRT: %s@." path
                        msg;
                      2
                  | updates ->
                      let sinks, finish = sinks_of () in
                      let t =
                        Serve.create ~config ~watched:(fun _ -> true) ~sinks
                          ~exec ()
                      in
                      List.iter (Serve.offer t) updates;
                      let horizon =
                        List.fold_left
                          (fun acc (u : Update.t) -> Float.max acc u.Update.time)
                          0. updates
                      in
                      let violations = Serve.drain t ~horizon in
                      finish ();
                      if not quiet then begin
                        Format.printf "decoded %d updates from %s@."
                          (List.length updates) path;
                        Format.printf "%a@.%a@." Ingest.pp_stats
                          (Ingest.stats (Serve.ingest t))
                          Window.pp_stats
                          (Window.stats (Serve.window t));
                        print_alerts (Serve.alerts t)
                      end;
                      (* Exit 1 on violations, listed as [check --suite
                         conform] lists them, so the code explains itself. *)
                      if violations = [] then 0
                      else begin
                        Report.conformance ~json:false fmt
                          ~observed:(List.length updates) violations;
                        1
                      end)
          | None ->
              let s = build_scenario seed scale in
              linted ~scenario:s @@ fun () ->
              let dynamics = dynamics_for days in
              let extra_updates =
                if attacks <= 0 then []
                else begin
                  let rng = Scenario.rng_for s "serve" in
                  let atk, extras =
                    Countermeasures.inject_hijacks ~rng ~n_attacks:attacks
                      ~duration:dynamics.Dynamics.duration s
                  in
                  if not quiet then
                    Format.printf "injecting %d attack announcement(s)@."
                      (List.length atk);
                  extras
                end
              in
              with_exec ~show_stats:false jobs (fun exec ->
                  let sinks, finish = sinks_of () in
                  let r =
                    Serve.replay ~dynamics ~extra_updates ~sinks ~config
                      ~exec s
                  in
                  finish ();
                  if not quiet then begin
                    Format.printf "%a@." Serve.pp_replay_summary r;
                    print_alerts r.Serve.r_alerts
                  end;
                  let fail = ref (r.Serve.r_violations <> []) in
                  if verify then begin
                    let m, batch =
                      Serve.batch_alerts ~dynamics ~extra_updates
                        ~learning_period:
                          config.Serve.Config.learning_period s
                    in
                    let issues = Serve.diff_against_batch r m batch in
                    List.iter
                      (fun i -> Format.printf "verify: DIFF %s@." i)
                      issues;
                    if issues = [] then
                      Format.printf
                        "verify: streaming = batch (%d alerts, %d cells)@."
                        (List.length r.Serve.r_alerts)
                        (List.length r.Serve.r_cells)
                    else fail := true;
                    (* The rendered §4 analyses must agree byte-for-byte
                       too; both cell lists are canonically sorted first
                       because the busiest-cell tie-break is otherwise
                       order-sensitive. *)
                    let render cells =
                      let m' = { m with Measurement.cells } in
                      Format.asprintf "%a%a" Path_changes.print
                        (Path_changes.compute ~exec m')
                        As_exposure.print
                        (As_exposure.compute
                           ~threshold:config.Serve.Config.threshold ~exec m')
                    in
                    let batch_render =
                      render (Serve.sort_cells m.Measurement.cells)
                    in
                    let serve_render = render r.Serve.r_cells in
                    if String.equal batch_render serve_render then
                      Format.printf
                        "verify: F3L/F3R renders byte-identical@."
                    else begin
                      Format.printf "verify: F3L/F3R renders DIFFER@.";
                      fail := true
                    end
                  end;
                  if !fail then 1 else 0))
    in
    if code <> 0 then Stdlib.exit code
  in
  let window =
    Arg.(value & opt float 3600. & info [ "window" ] ~docv:"SECONDS"
           ~doc:"Sliding-window span for rolling path-change state.")
  in
  let bucket =
    Arg.(value & opt float 60. & info [ "bucket" ] ~docv:"SECONDS"
           ~doc:"Ring-buffer bucket width; must divide the window.")
  in
  let threshold =
    Arg.(value & opt float 300. & info [ "threshold" ] ~docv:"SECONDS"
           ~doc:"Contiguous-residency threshold for extra-AS alerts (must \
                 lie within the window).")
  in
  let slack =
    Arg.(value & opt float 120. & info [ "slack" ] ~docv:"SECONDS"
           ~doc:"Out-of-order tolerance: updates older than the watermark \
                 (newest seen minus slack) are dropped and counted.")
  in
  let queue =
    Arg.(value & opt int 65536 & info [ "queue" ] ~docv:"N"
           ~doc:"Ingest queue bound; overflow drops are counted, never \
                 silent.")
  in
  let chunk =
    Arg.(value & opt int 512 & info [ "chunk" ] ~docv:"N"
           ~doc:"Batch size for event rendering and MRT decoding.")
  in
  let attacks =
    Arg.(value & opt (at_least 0) 0 & info [ "attacks" ] ~docv:"N"
           ~doc:"Inject $(docv) guard-prefix attack announcements into the \
                 replay (as the §5 monitoring experiment does).")
  in
  let replay =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Replay a seeded simulated measurement period through the \
                 live service (the default mode; incompatible with \
                 $(b,--mrt)).")
  in
  let mrt_file =
    Arg.(value & opt (some non_dir_file) None & info [ "mrt" ] ~docv:"FILE"
           ~doc:"Stream a recorded MRT update file (e.g. from \
                 $(b,quicksand mrt-dump)) instead of replaying a scenario. \
                 Malformed bytes exit 2. An update-only feed has no time-0 \
                 table, so a withdrawal of a prefix the feed never \
                 announced is a $(b,withdraw-before-announce) violation: \
                 the violations are listed and the exit code is 1.")
  in
  let collector =
    Arg.(value & opt string "mrt" & info [ "collector" ] ~docv:"NAME"
           ~doc:"Collector name attached to updates decoded from --mrt.")
  in
  let events =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
           ~doc:"Write the event stream as JSON lines to $(docv) ($(b,-) \
                 for stdout).")
  in
  let verify =
    Arg.(value & flag & info [ "verify-batch" ]
           ~doc:"Also run the batch pipeline over the same feed and demand \
                 exact agreement: alert-for-alert, cell-for-cell \
                 (bit-equal floats), and byte-identical F3L/F3R renders.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the text summary.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Streaming exposure monitor: bounded sliding windows and live \
             C1c alerting over a continuous update feed")
    Term.(const run $ seed $ scale $ days $ window $ bucket $ threshold
          $ slack $ queue $ chunk $ attacks $ replay $ mrt_file $ collector
          $ events $ verify $ quiet $ jobs $ obs_opts)

let check_cmd =
  let run seed scale suite seeds days json obs =
    let failed = ref false in
    let run_conform () =
      let dynamics =
        { Dynamics.short_config with Dynamics.duration = days *. 86_400. }
      in
      if not json then
        Format.printf "conformance: seed %d, %.1f simulated days@." seed days;
      let _, violations, observed =
        Conformance.run ~dynamics (Scenario.build ~seed scale)
      in
      Report.conformance ~json fmt ~observed violations;
      if violations <> [] then failed := true
    in
    let run_diff () =
      let seeds = List.init (if seeds = 0 then 2 else seeds) (fun i -> i + 1) in
      if not json then
        Format.printf "differential: %d seeds x 3 configuration pairs@."
          (List.length seeds);
      let outcomes = Differential.run ~seeds scale in
      Report.differential ~json fmt outcomes;
      if not (Differential.all_ok outcomes) then failed := true
    in
    let run_fuzz () =
      let seeds = if seeds = 0 then 200 else seeds in
      let mrt = Fuzz.mrt ~seeds () in
      let sr = Fuzz.session_reset ~seeds () in
      Report.fuzz ~json fmt [ ("mrt", mrt); ("session-reset", sr) ];
      if not (Fuzz.ok mrt && Fuzz.ok sr) then failed := true
    in
    let run_static () =
      let seeds = List.init (if seeds = 0 then 5 else seeds) (fun i -> i + 1) in
      if not json then
        Format.printf
          "static: %d seeds, dynamic paths and attack wins vs the \
           valley-free closure bounds@."
          (List.length seeds);
      let outcomes = Differential.static ~seeds scale in
      Report.differential ~json fmt outcomes;
      if not (Differential.all_ok outcomes) then failed := true
    in
    let run_delta () =
      let seeds = List.init (if seeds = 0 then 5 else seeds) (fun i -> i + 1) in
      if not json then
        Format.printf
          "delta: %d seeds, incremental repair vs full recompute (streams, \
           final tables, jobs)@."
          (List.length seeds);
      let outcomes = Differential.delta ~seeds scale in
      Report.differential ~json fmt outcomes;
      if not (Differential.all_ok outcomes) then failed := true
    in
    let run_churn () =
      let seeds = List.init (if seeds = 0 then 5 else seeds) (fun i -> i + 1) in
      if not json then
        Format.printf
          "churn: %d seeds, trace-generator shape/structure/identity laws@."
          (List.length seeds);
      let outcomes = Churn_check.run ~seeds () in
      Report.differential ~json fmt outcomes;
      if not (Differential.all_ok outcomes) then failed := true
    in
    with_obs obs (fun () ->
        match suite with
        | `Conform -> run_conform ()
        | `Diff -> run_diff ()
        | `Fuzz -> run_fuzz ()
        | `Static -> run_static ()
        | `Delta -> run_delta ()
        | `Churn -> run_churn ()
        | `All ->
            run_conform (); run_diff (); run_fuzz (); run_static ();
            run_delta (); run_churn ());
    if !failed then Stdlib.exit 1
  in
  let suite =
    Arg.(value
         & opt (enum [ ("conform", `Conform); ("diff", `Diff);
                       ("fuzz", `Fuzz); ("static", `Static);
                       ("delta", `Delta); ("churn", `Churn); ("all", `All) ])
             `All
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Which harness to run: $(b,conform) (streaming invariant \
                   checker over a full measurement), $(b,diff) \
                   (configuration pairs that must not change results), \
                   $(b,fuzz) (MRT codec mutation + session-reset \
                   injection), $(b,static) (dynamic paths and attack wins \
                   audited against the static valley-free bounds), \
                   $(b,delta) (incremental delta repair vs full recompute: \
                   byte-identical streams and final tables), $(b,churn) \
                   (trace-churn generator: distribution shape, stream \
                   structure, byte-identity), or $(b,all).")
  in
  let seeds =
    Arg.(value & opt (at_least 0) 0 & info [ "seeds" ] ~docv:"N"
           ~doc:"Seed count for $(b,diff) (default 2), $(b,fuzz) \
                 (default 200), $(b,static) (default 5), $(b,delta) \
                 (default 5) and $(b,churn) (default 5). Ignored by \
                 $(b,conform), which uses $(b,--seed).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the qs_check conformance/differential/fuzz harness")
    Term.(const run $ seed $ scale $ suite $ seeds $ days $ json_flag
          $ obs_opts)

let sweep_cmd =
  let list_entries () =
    List.iter
      (fun (e : Sweep.entry) ->
         let cells =
           match Sweep.cells e with
           | Ok cs -> string_of_int (List.length cs)
           | Error _ -> "invalid"
         in
         Format.printf "%-18s %7s cells  %s@." e.Sweep.name cells e.Sweep.doc)
      Sweep.builtin;
    Format.printf "@.overlay/axis keys:@.";
    List.iter
      (fun (k, doc) -> Format.printf "  %-10s %s@." k doc)
      Sweep.known_keys
  in
  let run matrix out list json jobs obs =
    if list then list_entries ()
    else
      match matrix with
      | None ->
          Format.eprintf
            "quicksand: sweep needs --matrix ENTRY (try --list)@.";
          Stdlib.exit 2
      | Some name ->
          match Sweep.find Sweep.builtin name with
          | None ->
              Format.eprintf
                "quicksand: unknown sweep matrix %S (try --list)@." name;
              Stdlib.exit 2
          | Some entry ->
              (* Exit code decided inside [with_obs], acted on after it
                 returns, like lint: [Stdlib.exit] would skip the report
                 writers. *)
              let code =
                with_obs obs (fun () ->
                    let outcome =
                      with_exec ~show_stats:(not json) jobs (fun exec ->
                          Sweep_run.run ~exec entry)
                    in
                    match outcome with
                    | Error invalids ->
                        List.iter
                          (fun (i : Sweep.invalid) ->
                            Format.eprintf "sweep: %s@." i.Sweep.message)
                          invalids;
                        2
                    | Ok t ->
                        Option.iter
                          (fun dir ->
                            let written = Sweep_run.write ~dir t in
                            Format.eprintf "wrote %d files under %s@."
                              (List.length written) dir)
                          out;
                        if json then print_string (t.Sweep_run.index_json ^ "\n")
                        else begin
                          Sweep_run.print_table fmt t;
                          Format.pp_print_newline fmt ()
                        end;
                        0)
              in
              if code <> 0 then Stdlib.exit code
  in
  let matrix =
    Arg.(value & opt (some string) None
         & info [ "matrix"; "m" ] ~docv:"ENTRY"
             ~doc:"Registry entry to expand and run (see $(b,--list)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write the results directory: $(i,DIR)/index.json, \
                   $(i,DIR)/table.txt and one \
                   $(i,DIR)/cell-*/{summary.json,metrics.json,fingerprint} \
                   per cell. Byte-identical across reruns and $(b,--jobs) \
                   settings.")
  in
  let list =
    Arg.(value & flag & info [ "list" ]
           ~doc:"Print the registry (entries, cell counts, known keys) \
                 and exit.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Expand a declared scenario matrix and run every cell")
    Term.(const run $ matrix $ out $ list $ json_flag $ jobs $ obs_opts)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "quicksand" ~version:"1.0.0"
      ~doc:"AS-level BGP attacks on Tor — reproduction toolkit for HotNets-XIII 'Anonymity on QuickSand'"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ dataset_cmd; concentration_cmd; path_changes_cmd; extra_ases_cmd;
            compromise_cmd; asym_cmd; hijack_cmd; intercept_cmd; defend_cmd;
            rov_cmd; asymmetry_cmd; long_term_cmd;
            topology_cmd; consensus_cmd; mrt_cmd; lint_cmd; surface_cmd;
            serve_cmd; check_cmd; sweep_cmd ]))

let all_rules =
  Routing_lint.rules @ Topology_lint.rules @ Addressing_lint.rules
  @ Scenario_lint.rules @ Surface_lint.rules
  @ Serve_lint.rules @ Sweep_lint.rules

let find_rule selector =
  List.find_opt (fun r -> Diag.matches_rule r selector) all_rules

let select ~rules diags =
  let selected =
    List.map
      (fun selector ->
         match find_rule selector with
         | Some r -> r.Diag.code
         | None ->
             invalid_arg
               (Printf.sprintf "Lint.select: unknown rule %S" selector))
      rules
  in
  List.filter (fun d -> List.mem d.Diag.rule.Diag.code selected) diags

(* Evenly-spaced deterministic sample: lint must not add randomness of its
   own, or a clean run would not be reproducible. *)
let sample_prefixes ~max_prefixes listing =
  if max_prefixes <= 0 then
    invalid_arg "Lint.sample_prefixes: max_prefixes must be positive";
  let n = List.length listing in
  if n <= max_prefixes then listing
  else
    let k = (n + max_prefixes - 1) / max_prefixes in
    List.filteri (fun i _ -> i mod k = 0) listing

let run ?rules ?(max_prefixes = 512) ?(determinism = true) ?exec
    (s : Scenario.t) =
  let pool = match exec with Some p -> p | None -> Pool.default () in
  let g = s.Scenario.graph in
  let topology = Topology_lint.check g in
  (* Per-prefix tables are recomputed as pool tasks. Each domain gets its
     own scratch workspace ("one workspace per domain", see
     [Propagate.Workspace]); the table must be checked inside the task
     that computed it, because the next compute through the same
     workspace clobbers it. [Pool.map_list] keeps sampled-prefix order,
     so the diagnostics come out in the same order at any worker count. *)
  let workspaces = Pool.per_domain Propagate.Workspace.create in
  let surfaces =
    Pool.per_domain (fun () -> Static_surface.create s.Scenario.indexed)
  in
  let routing =
    sample_prefixes ~max_prefixes (Addressing.announced s.Scenario.addressing)
    |> Pool.map_list pool (fun (p, o) ->
        let table =
          Propagate.compute s.Scenario.indexed
            ~workspace:(Pool.get workspaces)
            [ Announcement.originate o p ]
        in
        Routing_lint.check_table g table
        @ Surface_lint.check_table (Pool.get surfaces) g ~origin:o table)
    |> List.concat
  in
  let addressing = Addressing_lint.check s.Scenario.addressing s.Scenario.consensus in
  let scenario =
    Scenario_lint.check_collectors g s.Scenario.addressing s.Scenario.collectors
    @ (if determinism then
         Scenario_lint.check_determinism s
         @ Scenario_lint.check_parallel_fingerprint s
       else [])
  in
  (* Static-surface sweep over a deterministic evenly-spaced sample of
     plausible monitored pairs: stub client ASes hosting no relays,
     crossed with the guard-prefix origin ASes. Cheap (one cached closure
     per sampled AS) and random-free, like the prefix sample above. *)
  let surface =
    let surf = Pool.get surfaces in
    let evenly ~max_items l = sample_prefixes ~max_prefixes:max_items l in
    let clients =
      As_graph.ases g
      |> List.filter (fun a ->
          (As_graph.info g a).As_graph.tier = As_graph.Stub
          && Consensus.relays_in s.Scenario.consensus a = [])
      |> evenly ~max_items:8
    in
    let origins =
      Asn.Set.elements (Tor_prefix.origin_ases s.Scenario.tor_prefixes)
      |> evenly ~max_items:8
    in
    let pairs =
      List.concat_map (fun c -> List.map (fun o -> (c, o)) origins) clients
    in
    Surface_lint.check_pairs surf pairs
    @ Surface_lint.check_vantage surf ~monitors:(Scenario.monitors s) ~origins
    @ Surface_lint.check_overlay g []
  in
  let sweep = Sweep_lint.check () in
  let diags =
    routing @ topology @ addressing @ scenario @ surface @ sweep
  in
  match rules with None -> diags | Some rules -> select ~rules diags

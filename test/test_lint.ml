(* Tests for qs_lint: the diagnostics framework, each analyzer firing on an
   injected violation (forged valley route, looped AS path, wrong-origin
   announcement, over-long ROA, ...), and the clean-scenario pass. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let asn = Asn.of_int
let pfx = Prefix.of_string

let codes diags = List.map (fun d -> d.Diag.rule.Diag.code) diags

let fires code diags = List.mem code (codes diags)

let stub_info name =
  { As_graph.name; tier = As_graph.Stub; hosting_weight = 0. }

(* A small valley-free-checkable graph: 10 is 11's provider, 10 -- 20 peer,
   20 is 21's provider, 6 is a second provider of 11. *)
let diamond () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 6; 10; 11; 20; 21 ];
  As_graph.add_provider_customer g ~provider:(asn 10) ~customer:(asn 11);
  As_graph.add_peering g (asn 10) (asn 20);
  As_graph.add_provider_customer g ~provider:(asn 20) ~customer:(asn 21);
  As_graph.add_provider_customer g ~provider:(asn 6) ~customer:(asn 11);
  g

(* ---- Diag ------------------------------------------------------------ *)

let some_rule =
  { Diag.code = "QS999"; slug = "test-rule"; severity = Diag.Warn;
    doc = "only for tests"; explain = "a throwaway rule for diag tests" }

let test_diag_exit_code () =
  let w = Diag.make some_rule "a warning" in
  let e = Diag.make { some_rule with Diag.severity = Diag.Error } "an error" in
  check_int "no diags" 0 (Diag.exit_code ~fail_on:Diag.Warn []);
  check_int "warn under error policy" 0 (Diag.exit_code ~fail_on:Diag.Error [ w ]);
  check_int "warn under warn policy" 1 (Diag.exit_code ~fail_on:Diag.Warn [ w ]);
  check_int "error under error policy" 1 (Diag.exit_code ~fail_on:Diag.Error [ w; e ])

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_diag_json () =
  let d =
    Diag.make some_rule ~context:[ ("k", "va\"lue") ] "a \"quoted\"\nmessage"
  in
  let s = Format.asprintf "%a" (fun ppf -> Diag.report_json ppf) [ d ] in
  check_bool "escapes quotes" true (contains ~needle:{|a \"quoted\"\nmessage|} s);
  check_bool "has code" true (contains ~needle:{|"code":"QS999"|} s);
  check_bool "has context" true (contains ~needle:{|"k":"va\"lue"|} s)

let test_rule_lookup () =
  check_bool "by code" true
    (match Lint.find_rule "QS001" with
     | Some r -> r.Diag.slug = "valley-violation"
     | None -> false);
  check_bool "by slug" true
    (match Lint.find_rule "valley-violation" with
     | Some r -> r.Diag.code = "QS001"
     | None -> false);
  check_bool "by combined id" true
    (match Lint.find_rule "QS001-valley-violation" with
     | Some r -> r.Diag.code = "QS001"
     | None -> false);
  check_bool "unknown" true (Lint.find_rule "QS000" = None);
  (* codes are unique *)
  let cs = List.map (fun r -> r.Diag.code) Lint.all_rules in
  check_int "codes unique" (List.length cs) (List.length (List.sort_uniq compare cs))

(* ---- Routing analyzers ---------------------------------------------- *)

let test_valley_route_fires () =
  let g = diamond () in
  (* 6 -> 11 -> 10: a provider-learned route exported uphill — the classic
     valley. Origin last, as on a Route.t. *)
  let route = Route.make (pfx "10.0.0.0/8") [ asn 6; asn 11; asn 10 ] in
  let diags = Routing_lint.check_route g route in
  check_bool "QS001 fires" true (fires "QS001" diags);
  (* the legitimate up-peer-down path is clean *)
  check_int "clean path" 0
    (List.length
       (Routing_lint.check_path g ~prefix:(pfx "10.0.0.0/8")
          [ asn 21; asn 20; asn 10; asn 11 ]))

let test_peer_peer_valley_fires () =
  let g = diamond () in
  (* peer-learned route exported across a second peering-ish hop: 21-20-10-11-6
     ends with 11 -> 6 uphill after a peering step *)
  let diags =
    Routing_lint.check_path g ~prefix:(pfx "10.0.0.0/8")
      [ asn 21; asn 20; asn 10; asn 11; asn 6 ]
  in
  check_bool "QS001 fires" true (fires "QS001" diags)

let test_looped_path_fires () =
  let g = diamond () in
  let diags =
    Routing_lint.check_path g ~prefix:(pfx "10.0.0.0/8")
      [ asn 10; asn 11; asn 10; asn 11 ]
  in
  check_bool "QS002 fires" true (fires "QS002" diags);
  check_bool "QS001 suppressed on loops" false (fires "QS001" diags)

let test_prepending_is_not_a_loop () =
  let g = diamond () in
  (* adjacent repeats are prepending: 11 announced with prepend 2 *)
  let diags =
    Routing_lint.check_path g ~prefix:(pfx "10.0.0.0/8")
      [ asn 10; asn 11; asn 11; asn 11 ]
  in
  check_int "clean" 0 (List.length diags)

let test_next_hop_inconsistency_fires () =
  let neighbor a b = Asn.to_int a + 1 = Asn.to_int b in
  let routed a = Asn.to_int a <> 3 in
  (* 1 forwards to its neighbor 2: fine. 2 forwards to unrouted 3: fires.
     4 forwards to non-adjacent 6: fires. *)
  let next_hop a =
    match Asn.to_int a with
    | 1 -> Some (asn 2)
    | 2 -> Some (asn 3)
    | 4 -> Some (asn 6)
    | _ -> None
  in
  let diags =
    Routing_lint.check_next_hops ~neighbor ~next_hop ~routed
      [ asn 1; asn 2; asn 4; asn 5 ]
  in
  check_int "two findings" 2 (List.length diags);
  check_bool "QS003 fires" true (fires "QS003" diags)

let test_computed_table_is_clean () =
  let g = diamond () in
  let ix = As_graph.Indexed.of_graph g in
  let table =
    Propagate.compute ix [ Announcement.originate (asn 11) (pfx "10.0.0.0/8") ]
  in
  check_int "clean table" 0 (List.length (Routing_lint.check_table g table))

(* ---- Topology analyzers --------------------------------------------- *)

let test_provider_cycle_fires () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 1; 2; 3 ];
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 2);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 3);
  As_graph.add_provider_customer g ~provider:(asn 3) ~customer:(asn 1);
  let diags = Topology_lint.check_provider_acyclicity g in
  check_bool "QS103 fires" true (fires "QS103" diags);
  check_int "acyclic diamond clean" 0
    (List.length (Topology_lint.check_provider_acyclicity (diamond ())))

let test_disconnected_fires () =
  let g = As_graph.create () in
  As_graph.add_as g (asn 1) (stub_info "");
  As_graph.add_as g (asn 2) (stub_info "");
  check_bool "QS102 fires" true (fires "QS102" (Topology_lint.check_connectivity g));
  check_int "connected graph clean" 0
    (List.length (Topology_lint.check_connectivity (diamond ())))

let test_tier_sanity_fires () =
  let g = As_graph.create () in
  As_graph.add_as g (asn 1)
    { As_graph.name = "t1"; tier = As_graph.Tier1; hosting_weight = 0. };
  As_graph.add_as g (asn 2) (stub_info "stub-with-customer");
  As_graph.add_as g (asn 3) (stub_info "plain");
  (* Tier-1 with a provider, and a stub with a customer *)
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 1);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 3);
  let diags = Topology_lint.check_tiers g in
  check_bool "QS104 fires" true (fires "QS104" diags);
  check_int "both findings" 2 (List.length diags)

let test_symmetry_clean () =
  check_int "generated graph symmetric" 0
    (List.length
       (Topology_lint.check_symmetry
          (Topo_gen.generate ~rng:(Rng.of_int 5) Topo_gen.small_params)))

(* ---- Addressing / RPKI analyzers ------------------------------------ *)

let small_addressing seed =
  let g = Topo_gen.generate ~rng:(Rng.of_int seed) Topo_gen.small_params in
  (g, Addressing.allocate ~rng:(Rng.of_int seed) g)

let test_wrong_origin_fires () =
  let _, addressing = small_addressing 21 in
  let p, owner = List.hd (Addressing.announced addressing) in
  let wrong = asn (Asn.to_int owner + 1) in
  let diags =
    Addressing_lint.check_announcement addressing (Announcement.originate wrong p)
  in
  check_bool "QS201 fires" true (fires "QS201" diags);
  check_int "honest announcement clean" 0
    (List.length
       (Addressing_lint.check_announcement addressing
          (Announcement.originate owner p)))

let test_unknown_prefix_fires () =
  let _, addressing = small_addressing 22 in
  let diags =
    Addressing_lint.check_announcement addressing
      (Announcement.originate (asn 1) (pfx "203.0.113.0/24"))
  in
  check_bool "QS201 fires" true (fires "QS201" diags)

let test_overlong_roa_fires () =
  let roa p max_length =
    { Rpki.roa_prefix = pfx p; max_length; authorized = asn 5 }
  in
  check_bool "max_length 40 fires QS202" true
    (fires "QS202" (Addressing_lint.check_roa (roa "10.0.0.0/16" 40)));
  check_bool "max_length below length fires QS202" true
    (fires "QS202" (Addressing_lint.check_roa (roa "10.0.0.0/16" 8)));
  check_int "exact-length ROA clean" 0
    (List.length (Addressing_lint.check_roa (roa "10.0.0.0/16" 16)));
  check_int "max_length 32 clean" 0
    (List.length (Addressing_lint.check_roa (roa "10.0.0.0/16" 32)))

let test_moas_conflict_fires () =
  let p = pfx "192.0.2.0/24" in
  let diags = Addressing_lint.check_origins [ (p, asn 1); (p, asn 2) ] in
  check_bool "QS203 fires" true (fires "QS203" diags);
  check_int "consistent listing clean" 0
    (List.length
       (Addressing_lint.check_origins [ (p, asn 1); (pfx "198.51.100.0/24", asn 2) ]))

let test_unrouted_relay_fires () =
  let _, addressing = small_addressing 23 in
  let relay =
    Relay.make ~nickname:"ghost" ~ip:(Ipv4.of_octets 240 0 0 1) ~asn:(asn 1)
      ~bandwidth:1000 ~flags:[ Relay.Guard ]
  in
  let diags = Addressing_lint.check_relays addressing [ relay ] in
  check_bool "QS204 fires" true (fires "QS204" diags)

(* ---- Scenario analyzers --------------------------------------------- *)

let test_dead_collector_peer_fires () =
  let g, addressing = small_addressing 24 in
  let ghost = asn 64999 in
  check_bool "ghost not in graph" false (As_graph.mem_as g ghost);
  let collector =
    { Collector.name = "rrc99";
      sessions =
        [ { Collector.id = { Update.collector = "rrc99"; peer = ghost };
            peer_ip = Ipv4.of_octets 192 0 2 1;
            feed = Collector.Full } ] }
  in
  let diags = Scenario_lint.check_collectors g addressing [ collector ] in
  check_bool "QS302 fires" true (fires "QS302" diags);
  check_bool "QS303 fires for the documentation IP" true (fires "QS303" diags)

(* ---- Static surface analyzers (QS401-404) ---------------------------- *)

let diamond_surface () =
  let g = diamond () in
  let ix = As_graph.Indexed.of_graph g in
  (g, ix, Static_surface.create ix)

(* The diamond's only announced prefix, originated at 11. *)
let surface_origin_of p =
  if Prefix.equal p (pfx "10.0.0.0/8") then Some (asn 11) else None

let surface_announce ~peer path =
  { Update.time = 1.;
    session = { Update.collector = "rrc00"; peer };
    kind = Update.Announce (Route.make (pfx "10.0.0.0/8") path) }

let test_qs401_fires () =
  let _, _, surface = diamond_surface () in
  (* A route heard at 21 whose path detours through 6: 6 hangs off the far
     downhill side, so no valley-free 21 <-> 11 walk can cross it. *)
  let diags =
    Surface_lint.check_stream surface ~origin_of:surface_origin_of
      [ surface_announce ~peer:(asn 21) [ asn 6; asn 11 ] ]
  in
  check_bool "QS401 fires" true (fires "QS401" diags);
  check_bool "names the escapee" true
    (List.exists
       (fun d ->
          List.assoc_opt "escapee" d.Diag.context
          = Some (Asn.to_string (asn 6)))
       diags)

let test_qs401_clean_and_skips () =
  let _, _, surface = diamond_surface () in
  let legit = surface_announce ~peer:(asn 21) [ asn 20; asn 10; asn 11 ] in
  (* prefixes the origin map does not know, and withdraws, are skipped *)
  let unknown =
    { (surface_announce ~peer:(asn 21) [ asn 6 ]) with
      Update.kind = Update.Announce (Route.make (pfx "192.0.2.0/24") [ asn 6 ]) }
  in
  let withdraw =
    { (surface_announce ~peer:(asn 21) [ asn 11 ]) with
      Update.kind = Update.Withdraw (pfx "10.0.0.0/8") }
  in
  check_int "clean stream" 0
    (List.length
       (Surface_lint.check_stream surface ~origin_of:surface_origin_of
          [ legit; unknown; withdraw ]))

let test_qs401_computed_table_clean () =
  (* What the real engine selects always sits inside the bound. *)
  let g, ix, surface = diamond_surface () in
  let table =
    Propagate.compute ix [ Announcement.originate (asn 11) (pfx "10.0.0.0/8") ]
  in
  check_int "converged table within bound" 0
    (List.length (Surface_lint.check_table surface g ~origin:(asn 11) table))

(* Two transit trees joined only through a shared customer: 1 and 2 both
   provide for 3; 4 hangs under 1 alone, 5 under 2 alone. Any 4 <-> 5 walk
   would have to climb back out of 3 after descending into it — a valley —
   so the pair is physically connected but policy-unreachable. *)
let stranded_surface () =
  let g = As_graph.create () in
  List.iter (fun i -> As_graph.add_as g (asn i) (stub_info "")) [ 1; 2; 3; 4; 5 ];
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 3);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 3);
  As_graph.add_provider_customer g ~provider:(asn 1) ~customer:(asn 4);
  As_graph.add_provider_customer g ~provider:(asn 2) ~customer:(asn 5);
  Static_surface.create (As_graph.Indexed.of_graph g)

let test_qs402_fires () =
  let surface = stranded_surface () in
  let diags =
    Surface_lint.check_pairs surface [ (asn 4, asn 5); (asn 4, asn 3) ]
  in
  check_bool "QS402 fires for the stranded pair" true (fires "QS402" diags);
  check_int "the reachable pair is clean" 1 (List.length diags)

let test_qs403_fires () =
  let surface = stranded_surface () in
  (* 5's forward closure is {5, 2, 3}: monitor 3 hears it, monitor 4 is
     a dead vantage point. *)
  let diags =
    Surface_lint.check_vantage surface ~monitors:[ asn 4; asn 3 ]
      ~origins:[ asn 5 ]
  in
  check_bool "QS403 fires for the deaf monitor" true (fires "QS403" diags);
  check_int "only the deaf monitor" 1 (List.length diags);
  check_bool "lists the origin it misses" true
    (List.for_all
       (fun d ->
          List.assoc_opt "deaf_to" d.Diag.context
          = Some (Asn.to_string (asn 5)))
       diags)

let test_qs404_fires () =
  let g = diamond () in
  (* 10 and 20 each steer selection toward the other across their peering:
     the minimal dispute wheel. 11 -> 21 are not adjacent at all. *)
  let diags =
    Surface_lint.check_overlay g
      [ (asn 10, asn 20); (asn 20, asn 10); (asn 11, asn 21) ]
  in
  check_bool "QS404 fires" true (fires "QS404" diags);
  check_int "wheel + non-adjacent entry" 2 (List.length diags);
  check_bool "severity error" true
    (List.for_all (fun d -> d.Diag.rule.Diag.severity = Diag.Error) diags)

let test_qs404_acyclic_overlay_clean () =
  let g = diamond () in
  (* Customer-target overrides restate prefer-customer; a risky override
     with no ring (21 toward its provider 20) closes no wheel. *)
  check_int "clean" 0
    (List.length
       (Surface_lint.check_overlay g
          [ (asn 10, asn 11); (asn 6, asn 11); (asn 21, asn 20) ]))

let test_qs4xx_registered_with_explanations () =
  List.iter
    (fun code ->
       check_bool (code ^ " registered") true (Lint.find_rule code <> None))
    [ "QS401"; "QS402"; "QS403"; "QS404" ];
  (* every registered rule carries a substantive --explain paragraph *)
  List.iter
    (fun r ->
       check_bool (r.Diag.code ^ " has an explanation") true
         (String.length r.Diag.explain > 0
          && not (String.equal r.Diag.explain r.Diag.doc)))
    Lint.all_rules

(* ---- Whole-scenario driver ------------------------------------------ *)

let scenario = lazy (Scenario.build ~seed:1 Scenario.Small)

let test_clean_scenario_no_errors () =
  let diags = Lint.run (Lazy.force scenario) in
  let errs = List.filter (fun d -> d.Diag.rule.Diag.severity = Diag.Error) diags in
  List.iter (fun d -> Format.eprintf "unexpected: %a@." Diag.pp d) errs;
  check_int "zero errors on a clean scenario" 0 (List.length errs);
  check_int "exit code 0" 0 (Diag.exit_code ~fail_on:Diag.Error diags)

let test_fingerprint_deterministic () =
  let s1 = Lazy.force scenario in
  let s2 = Scenario.build ~seed:1 Scenario.Small in
  Alcotest.(check string) "equal fingerprints" (Scenario.fingerprint s1)
    (Scenario.fingerprint s2);
  check_bool "different seeds differ" false
    (String.equal
       (Scenario.fingerprint s1)
       (Scenario.fingerprint (Scenario.build ~seed:2 Scenario.Small)));
  check_int "QS301 silent" 0
    (List.length (Scenario_lint.check_determinism s1))

let test_qs305_registered () =
  check_bool "QS305 in the registry" true
    (match Lint.find_rule "QS305" with
     | Some r -> r.Diag.slug = "parallel-fingerprint-divergence"
     | None -> false);
  check_bool "by slug too" true
    (Lint.find_rule "parallel-fingerprint-divergence" <> None)

let test_qs305_clean () =
  check_int "QS305 silent on a real scenario" 0
    (List.length (Scenario_lint.check_parallel_fingerprint (Lazy.force scenario)))

let test_qs305_fires () =
  (* Inject a jobs-dependent digest: a genuine divergence is (by design)
     impossible to produce through the real fingerprint, so the firing
     path is exercised with a digest that leaks the pool width. *)
  let diags =
    Scenario_lint.check_parallel_fingerprint
      ~fingerprint:(fun ~exec -> string_of_int (Pool.jobs exec))
      (Lazy.force scenario)
  in
  check_bool "QS305 fires on a jobs-dependent digest" true (fires "QS305" diags);
  check_int "exactly one finding" 1 (List.length diags);
  check_bool "severity error" true
    (List.for_all (fun d -> d.Diag.rule.Diag.severity = Diag.Error) diags)

(* ---- Sweep registry (QS308) ------------------------------------------ *)

let test_qs308_registered () =
  check_bool "QS308 in the registry" true
    (match Lint.find_rule "QS308" with
     | Some r ->
         r.Diag.slug = "sweep-entry-invalid"
         && String.length r.Diag.explain > 200
     | None -> false);
  check_bool "by slug too" true (Lint.find_rule "sweep-entry-invalid" <> None)

let sweep_entry ?(axes = []) name =
  { Sweep.name; doc = "test entry"; vars = Sweep.default_vars; axes }

let test_qs308_builtin_clean () =
  check_int "shipped registry clean" 0 (List.length (Sweep_lint.check ()))

(* One injected entry per problem class; each must fire QS308 with the
   entry name and a stable problem slug in the diagnostic context. *)
let test_qs308_fires () =
  let problems diags =
    List.filter_map
      (fun (d : Diag.t) ->
         if d.Diag.rule.Diag.code = "QS308" then
           List.assoc_opt "problem" d.Diag.context
         else None)
      diags
  in
  let check_problem name registry slug =
    let diags = Sweep_lint.check ~registry () in
    check_bool (name ^ " fires QS308") true (fires "QS308" diags);
    check_bool (name ^ " carries slug " ^ slug) true
      (List.mem slug (problems diags))
  in
  check_problem "empty axis"
    [ sweep_entry "e" ~axes:[ Sweep.seed [] ] ]
    "empty-axis";
  check_problem "duplicate cell"
    [ sweep_entry "e" ~axes:[ Sweep.churn [ Sweep.Heavy; Sweep.Heavy ] ] ]
    "duplicate-cell";
  check_problem "one key on two axes"
    [ sweep_entry "e"
        ~axes:[ Sweep.delta [ false; true ]; Sweep.delta [ true ] ] ]
    "duplicate-cell";
  check_problem "duplicate entry"
    [ sweep_entry "e"; sweep_entry "e" ]
    "duplicate-entry"

let test_qs308_in_lint_run () =
  (* The whole-scenario driver folds the registry check in; the shipped
     registry is clean, so a full run must stay QS308-free. *)
  let diags =
    Pool.with_pool ~jobs:1 (fun exec ->
        Lint.run ~rules:[ "QS308" ] ~determinism:false ~exec
          (Lazy.force scenario))
  in
  check_int "QS308 clean on the shipped registry" 0 (List.length diags)

(* ---- Serve configuration (QS307) ------------------------------------- *)

let test_qs307_registered () =
  check_bool "QS307 in the registry" true
    (match Lint.find_rule "QS307" with
     | Some r -> r.Diag.slug = "serve-config-invalid"
     | None -> false);
  check_bool "by slug too" true (Lint.find_rule "serve-config-invalid" <> None)

let qs307_base = Serve.Config.view Serve.Config.default

let test_qs307_structural () =
  check_int "default serve config clean" 0
    (List.length (Serve_lint.check qs307_base));
  check_bool "window not a multiple of bucket" true
    (fires "QS307"
       (Serve_lint.check { qs307_base with Serve_lint.window = 100. }));
  check_bool "non-positive bucket" true
    (fires "QS307"
       (Serve_lint.check { qs307_base with Serve_lint.bucket = 0. }));
  check_bool "threshold beyond the window" true
    (fires "QS307"
       (Serve_lint.check { qs307_base with Serve_lint.threshold = 7200. }));
  check_bool "non-positive threshold" true
    (fires "QS307"
       (Serve_lint.check { qs307_base with Serve_lint.threshold = 0. }));
  check_bool "negative slack" true
    (fires "QS307"
       (Serve_lint.check { qs307_base with Serve_lint.slack = -1. }));
  check_bool "chunk beyond queue capacity" true
    (fires "QS307"
       (Serve_lint.check
          { qs307_base with Serve_lint.capacity = 16; chunk = 64 }));
  (* The ring bound: exactly max_buckets slots pass, one bucket more
     fires (the window then divides into max_buckets + 1 buckets). *)
  let slots n =
    { qs307_base with
      Serve_lint.window = float_of_int n; bucket = 1.; threshold = 1. }
  in
  check_int "max_buckets slots allowed" 0
    (List.length (Serve_lint.check (slots Serve_lint.max_buckets)));
  check_bool "one slot over the ring bound" true
    (fires "QS307" (Serve_lint.check (slots (Serve_lint.max_buckets + 1))));
  (* Every comparison is false on NaN, and an infinite window is an
     infinite multiple of any bucket: non-finite knobs must fire too. *)
  List.iter
    (fun (name, v) ->
       check_bool name true (fires "QS307" (Serve_lint.check v)))
    [ ("NaN window", { qs307_base with Serve_lint.window = Float.nan });
      ("infinite window", { qs307_base with Serve_lint.window = infinity });
      ("NaN bucket", { qs307_base with Serve_lint.bucket = Float.nan });
      ("infinite bucket", { qs307_base with Serve_lint.bucket = infinity });
      ("NaN threshold", { qs307_base with Serve_lint.threshold = Float.nan });
      ("NaN slack", { qs307_base with Serve_lint.slack = Float.nan });
      ("infinite slack", { qs307_base with Serve_lint.slack = infinity }) ]

let test_qs307_monitored_pairs () =
  let s = Lazy.force scenario in
  let announced = Addressing.announced s.Scenario.addressing in
  let is_tor p = Tor_prefix.is_tor_prefix s.Scenario.tor_prefixes p in
  let client =
    fst (List.find (fun (p, _) -> not (is_tor p)) announced)
  in
  let guard = fst (List.find (fun (p, _) -> is_tor p) announced) in
  let view pairs = { qs307_base with Serve_lint.monitored = pairs } in
  check_int "announced (client, guard) pair clean" 0
    (List.length (Serve_lint.check ~scenario:s (view [ (client, guard) ])));
  check_bool "unannounced client prefix fires" true
    (fires "QS307"
       (Serve_lint.check ~scenario:s
          (view [ (pfx "203.0.113.0/24", guard) ])));
  check_bool "unannounced guard prefix fires" true
    (fires "QS307"
       (Serve_lint.check ~scenario:s
          (view [ (client, pfx "198.51.100.0/24") ])));
  check_bool "relay-less guard prefix fires" true
    (fires "QS307" (Serve_lint.check ~scenario:s (view [ (guard, client) ])));
  (* without a scenario only the structural checks run *)
  check_int "pairs unchecked without a scenario" 0
    (List.length (Serve_lint.check (view [ (pfx "203.0.113.0/24", client) ])))

let test_lint_run_jobs_identical () =
  (* The per-prefix sampling sweep must report the same findings, in the
     same order, at any worker count (determinism off: one scenario
     rebuild per Lint.run is enough for this test). *)
  let s = Lazy.force scenario in
  let report jobs =
    Pool.with_pool ~jobs (fun exec ->
        Lint.run ~determinism:false ~max_prefixes:64 ~exec s
        |> List.map (Format.asprintf "%a" Diag.pp)
        |> String.concat "\n")
  in
  Alcotest.(check string) "lint byte-identical at jobs=1 and jobs=4"
    (report 1) (report 4)

let test_rule_selection () =
  let s = Lazy.force scenario in
  let diags = Lint.run ~rules:[ "QS104"; "valley-violation" ] ~determinism:false s in
  check_bool "only selected rules" true
    (List.for_all (fun d -> List.mem d.Diag.rule.Diag.code [ "QS104"; "QS001" ]) diags);
  check_bool "unknown selector rejected" true
    (try ignore (Lint.select ~rules:[ "QS000" ] []); false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "qs_lint"
    [ ("diag",
       [ Alcotest.test_case "exit code policy" `Quick test_diag_exit_code;
         Alcotest.test_case "json escaping" `Quick test_diag_json;
         Alcotest.test_case "rule lookup" `Quick test_rule_lookup ]);
      ("routing",
       [ Alcotest.test_case "valley route fires" `Quick test_valley_route_fires;
         Alcotest.test_case "peer-peer valley fires" `Quick
           test_peer_peer_valley_fires;
         Alcotest.test_case "looped path fires" `Quick test_looped_path_fires;
         Alcotest.test_case "prepending is not a loop" `Quick
           test_prepending_is_not_a_loop;
         Alcotest.test_case "next-hop inconsistency fires" `Quick
           test_next_hop_inconsistency_fires;
         Alcotest.test_case "computed table clean" `Quick
           test_computed_table_is_clean ]);
      ("topology",
       [ Alcotest.test_case "provider cycle fires" `Quick test_provider_cycle_fires;
         Alcotest.test_case "disconnected fires" `Quick test_disconnected_fires;
         Alcotest.test_case "tier sanity fires" `Quick test_tier_sanity_fires;
         Alcotest.test_case "generated graph symmetric" `Quick test_symmetry_clean ]);
      ("addressing",
       [ Alcotest.test_case "wrong origin fires" `Quick test_wrong_origin_fires;
         Alcotest.test_case "unknown prefix fires" `Quick test_unknown_prefix_fires;
         Alcotest.test_case "over-long ROA fires" `Quick test_overlong_roa_fires;
         Alcotest.test_case "MOAS conflict fires" `Quick test_moas_conflict_fires;
         Alcotest.test_case "unrouted relay fires" `Quick test_unrouted_relay_fires ]);
      ("scenario",
       [ Alcotest.test_case "dead collector peer fires" `Quick
           test_dead_collector_peer_fires;
         Alcotest.test_case "clean scenario: no errors" `Quick
           test_clean_scenario_no_errors;
         Alcotest.test_case "fingerprint deterministic" `Quick
           test_fingerprint_deterministic;
         Alcotest.test_case "rule selection" `Quick test_rule_selection ]);
      ("static surface",
       [ Alcotest.test_case "QS401 fires on an escapee" `Quick test_qs401_fires;
         Alcotest.test_case "QS401 clean stream and skips" `Quick
           test_qs401_clean_and_skips;
         Alcotest.test_case "QS401 computed table clean" `Quick
           test_qs401_computed_table_clean;
         Alcotest.test_case "QS402 stranded pair fires" `Quick test_qs402_fires;
         Alcotest.test_case "QS403 deaf vantage fires" `Quick test_qs403_fires;
         Alcotest.test_case "QS404 dispute wheel fires" `Quick test_qs404_fires;
         Alcotest.test_case "QS404 acyclic overlay clean" `Quick
           test_qs404_acyclic_overlay_clean;
         Alcotest.test_case "QS4xx registered with explanations" `Quick
           test_qs4xx_registered_with_explanations ]);
      ("executor",
       [ Alcotest.test_case "QS305 registered" `Quick test_qs305_registered;
         Alcotest.test_case "QS305 clean" `Quick test_qs305_clean;
         Alcotest.test_case "QS305 fires" `Quick test_qs305_fires;
         Alcotest.test_case "lint jobs identity" `Quick
           test_lint_run_jobs_identical ]);
      ("sweep registry",
       [ Alcotest.test_case "QS308 registered" `Quick test_qs308_registered;
         Alcotest.test_case "QS308 builtin clean" `Quick
           test_qs308_builtin_clean;
         Alcotest.test_case "QS308 fires" `Quick test_qs308_fires;
         Alcotest.test_case "QS308 in lint run" `Quick
           test_qs308_in_lint_run ]);
      ("serve config",
       [ Alcotest.test_case "QS307 registered" `Quick test_qs307_registered;
         Alcotest.test_case "QS307 structural checks" `Quick
           test_qs307_structural;
         Alcotest.test_case "QS307 monitored pairs" `Quick
           test_qs307_monitored_pairs ]) ]

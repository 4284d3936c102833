(* Cross-library integration tests: full pipelines exercised end to end on
   small worlds — dynamics through MRT serialization and back; hijacks
   through collectors into detection; the asymmetric attack against real
   simulated traffic; reset filtering against ground truth. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scenario = lazy (Scenario.build ~seed:77 Scenario.Small)

let tiny_dynamics =
  { Dynamics.short_config with
    Dynamics.duration = 12. *. 3600.;
    base_churn_rate = 0.3 }

(* 1. Dynamics -> MRT encode -> decode -> identical update stream. *)
let test_dynamics_mrt_roundtrip () =
  let s = Lazy.force scenario in
  let rng = Scenario.rng_for s "mrt-roundtrip" in
  let buf = Buffer.create 65536 in
  let originals = ref [] in
  let local_ip = Ipv4.of_string "192.0.2.254" in
  let peer_ip = Ipv4.of_string "192.0.2.1" in
  let emit (u : Update.t) =
    originals := u :: !originals;
    Mrt.encode_record buf
      (Mrt.record_of_update ~local_as:(Asn.of_int 12654) ~local_ip ~peer_ip u)
  in
  let _, stats = Dynamics.run ~rng tiny_dynamics s.Scenario.world ~emit in
  check_bool "stream non-empty" true (stats.Dynamics.updates_emitted > 0);
  let decoded =
    Mrt.decode (Buffer.contents buf)
    |> List.concat_map (fun r ->
        (* collectors are recovered out of band; use a fixed name and match
           on peer + prefix + path *)
        Mrt.update_of_record ~collector:"x" r)
  in
  check_int "record count" (List.length !originals) (List.length decoded);
  List.iter2
    (fun (a : Update.t) (b : Update.t) ->
       check_bool "same peer" true
         (Asn.equal a.Update.session.Update.peer b.Update.session.Update.peer);
       check_bool "same prefix" true
         (Prefix.equal (Update.prefix a) (Update.prefix b));
       check_bool "same time" true (Float.abs (a.Update.time -. b.Update.time) < 1e-3);
       match (a.Update.kind, b.Update.kind) with
       | Update.Announce ra, Update.Announce rb ->
           check_bool "same path" true
             (List.equal Asn.equal ra.Route.as_path rb.Route.as_path)
       | Update.Withdraw _, Update.Withdraw _ -> ()
       | Update.Announce _, Update.Withdraw _ | Update.Withdraw _, Update.Announce _
         ->
           Alcotest.fail "kind mismatch")
    (List.rev !originals) decoded

(* 2. Reset filtering vs ground truth: every injected reset interval should
   be found, with few spurious bursts. *)
let test_reset_detection_vs_ground_truth () =
  let s = Lazy.force scenario in
  let rng = Scenario.rng_for s "reset-truth" in
  let config =
    { tiny_dynamics with
      Dynamics.duration = 2. *. 86_400.;
      resets_per_session = 2.0 }
  in
  let filter = Session_reset.create ~emit:(fun _ -> ()) () in
  let initial_seen = ref false in
  let table_sizes = ref Update.Session_map.empty in
  let on_initial initial =
    initial_seen := true;
    Update.Session_map.iter
      (fun session table ->
         let n = Prefix.Map.cardinal table in
         table_sizes := Update.Session_map.add session n !table_sizes;
         Session_reset.preload_table filter session n)
      initial
  in
  let _, stats =
    Dynamics.run ~rng ~on_initial config s.Scenario.world
      ~emit:(Session_reset.push filter)
  in
  Session_reset.flush filter;
  check_bool "initial callback fired" true !initial_seen;
  (* A replay of a tiny table is indistinguishable from normal churn by
     design (the filter's min_prefixes floor), so score recall only on
     sessions whose table is big enough to look like a transfer. *)
  let truth =
    List.filter
      (fun (session, _, _) ->
         match Update.Session_map.find_opt session !table_sizes with
         | Some n -> n >= 2 * Session_reset.default_config.Session_reset.min_prefixes
         | None -> false)
      stats.Dynamics.resets_injected
  in
  let found = (Session_reset.stats filter).Session_reset.bursts in
  check_bool "some resets injected" true (truth <> []);
  let detected =
    List.filter
      (fun (session, start, finish) ->
         List.exists
           (fun (s', b_start, b_end) ->
              Update.session_equal session s'
              && b_start <= finish +. 120. && b_end >= start -. 120.)
           found)
      truth
  in
  let recall =
    float_of_int (List.length detected) /. float_of_int (List.length truth)
  in
  check_bool
    (Printf.sprintf "recall %.2f >= 0.7" recall)
    true (recall >= 0.7)

(* 3. Hijack -> collector updates -> Detection raises a MOAS within the
   cool-down discipline. *)
let test_hijack_detection_pipeline () =
  let s = Lazy.force scenario in
  let rng = Scenario.rng_for s "hijack-detect" in
  let m = Countermeasures.monitoring ~rng ~n_attacks:3 ~dynamics:tiny_dynamics s in
  check_bool "recall positive" true (m.Countermeasures.recall > 0.);
  check_bool "alarms raised" true (m.Countermeasures.alarms_total > 0)

(* 4. The full asymmetric attack against simulated traffic: all four
   segment totals agree within cell overhead, and matching works. *)
let test_traffic_attack_pipeline () =
  let rng = Rng.of_int 4242 in
  let r = Onion.download ~rng ~size:(4 * 1024 * 1024) () in
  check_bool "completed" true r.Onion.completed;
  let sent_srv = Trace.total_payload r.Onion.server_to_exit in
  let acked_cli = Trace.max_ack r.Onion.client_to_guard in
  (* client side counts cells; 514/498 apart, give 8% slack *)
  let ratio = float_of_int acked_cli /. float_of_int sent_srv in
  check_bool "segments consistent" true (ratio > 0.95 && ratio < 1.12);
  let m = Asymmetric.deanonymize ~rng ~n_flows:4 ~size:(2 * 1024 * 1024) () in
  check_bool "matching works end to end" true (m.Asymmetric.correct >= 3)

(* 5. Interception feasibility implies a usable data path: captured traffic
   re-injected at the attacker reaches the victim. *)
let test_interception_return_path_works () =
  let s = Lazy.force scenario in
  let rng = Scenario.rng_for s "interception-path" in
  let tried = ref 0 and feasible = ref 0 in
  for _ = 1 to 12 do
    let guard = Path_selection.pick_guard ~rng s.Scenario.consensus in
    match Scenario.guard_announcement s guard with
    | None -> ()
    | Some victim ->
        let attacker = Scenario.random_client_as ~rng s in
        if not (Asn.equal attacker victim.Announcement.origin) then begin
          incr tried;
          let i = Interception.run s.Scenario.indexed ~victim ~attacker () in
          if i.Interception.feasible then begin
            incr feasible;
            match i.Interception.return_path with
            | Some (first :: rest) ->
                check_bool "starts at attacker" true
                  (Asn.equal first i.Interception.attacker);
                check_bool "ends at victim origin" true
                  (match List.rev rest with
                   | last :: _ -> Asn.equal last victim.Announcement.origin
                   | [] -> false);
                check_bool "attacker not revisited" true
                  (not (List.exists (Asn.equal i.Interception.attacker) rest))
            | Some [] | None -> Alcotest.fail "feasible but no return path"
          end
        end
  done;
  check_bool "tried some" true (!tried > 0)

(* 6. Consensus + topology serialization round-trips reconstruct the same
   Tor-prefix mapping. *)
let test_serialization_pipeline () =
  let s = Lazy.force scenario in
  let consensus' = Consensus.of_string (Consensus.to_string s.Scenario.consensus) in
  let tp = Tor_prefix.compute s.Scenario.addressing s.Scenario.consensus in
  let tp' = Tor_prefix.compute s.Scenario.addressing consensus' in
  check_int "same prefix count" (Tor_prefix.count tp) (Tor_prefix.count tp');
  check_int "same origin ASes"
    (Asn.Set.cardinal (Tor_prefix.origin_ases tp))
    (Asn.Set.cardinal (Tor_prefix.origin_ases tp'))

(* 7. End-to-end determinism: a full small pipeline twice gives identical
   headline numbers. *)
let test_full_determinism () =
  let run () =
    let s = Scenario.build ~seed:99 Scenario.Small in
    let m = Measurement.run ~dynamics:tiny_dynamics s in
    let pc = Path_changes.compute m in
    let e = As_exposure.compute m in
    ( List.length m.Measurement.cells,
      pc.Path_changes.frac_above_one,
      e.As_exposure.frac_at_least_2,
      m.Measurement.dyn_stats.Dynamics.updates_emitted )
  in
  check_bool "two runs identical" true (run () = run ())

(* 8. The measurement pipeline passes the streaming conformance checker:
   every post-filter update respects the horizon and per-session time
   order, withdraws follow announces (or a baseline route), and the
   finished measurement satisfies the accounting invariants. *)
let test_pipeline_conformance () =
  let m, violations, _ =
    Conformance.run ~dynamics:tiny_dynamics (Lazy.force scenario)
  in
  List.iter
    (fun v -> Format.eprintf "%a@." Conformance.pp_violation v)
    violations;
  check_int "no conformance violations" 0 (List.length violations);
  check_bool "stream was actually observed" true
    (m.Measurement.dyn_stats.Dynamics.updates_emitted > 0)

let () =
  Alcotest.run "integration"
    [ ("pipelines",
       [ Alcotest.test_case "dynamics->MRT->decode" `Quick
           test_dynamics_mrt_roundtrip;
         Alcotest.test_case "reset detection vs ground truth" `Quick
           test_reset_detection_vs_ground_truth;
         Alcotest.test_case "hijack->collector->detection" `Quick
           test_hijack_detection_pipeline;
         Alcotest.test_case "traffic attack end to end" `Quick
           test_traffic_attack_pipeline;
         Alcotest.test_case "interception return path" `Quick
           test_interception_return_path_works;
         Alcotest.test_case "serialization round trips" `Quick
           test_serialization_pipeline;
         Alcotest.test_case "full determinism" `Quick test_full_determinism;
         Alcotest.test_case "pipeline conformance" `Quick
           test_pipeline_conformance ]) ]

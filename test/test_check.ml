(* Tests for qs_check — and the regression tests for the three stream-
   conformance bugs it was built to pin:

   1. [Session_reset.flush] used to emit buffered updates per session in
      hash order, violating global time order across sessions;
   2. [Measurement] used to count only announcements in [updates] and
      materialized phantom cells for withdraw-only keys;
   3. [Measurement.extra_ases] used to threshold cumulative residency,
      so disjoint short appearances could pass the 5-minute rule. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let scenario = lazy (Scenario.build ~seed:5 Scenario.Small)

let tiny_dynamics =
  { Dynamics.short_config with
    Dynamics.duration = 12. *. 3600.;
    base_churn_rate = 0.3 }

(* Everything off: the only updates the pipeline sees are the extras the
   test injects, over the time-0 baseline tables. *)
let no_churn =
  { Dynamics.short_config with
    Dynamics.duration = 3600.;
    base_churn_rate = 0.;
    global_link_events = 0;
    resets_per_session = 0.;
    pathological_prefixes = 0 }

let session k = { Update.collector = "rrc00"; peer = Asn.of_int (65000 + k) }

let prefix_of i = Prefix.make (Ipv4.of_int_trunc (0x0A000000 + (i * 256))) 24

let announce ?(path = [ Asn.of_int 100; Asn.of_int 200 ]) s time i =
  { Update.time; session = s; kind = Update.Announce (Route.make (prefix_of i) path) }

(* ---- regression 1: flush preserves global time order ------------------ *)

let test_flush_global_order () =
  let emitted = ref [] in
  let f = Session_reset.create ~emit:(fun u -> emitted := u :: !emitted) () in
  let a = session 1 and b = session 2 in
  (* Interleaved across two sessions; few enough distinct prefixes that
     everything stays buffered until flush. Any per-session emission
     order yields times out of global order regardless of hash order. *)
  List.iter (Session_reset.push f)
    [ announce a 10. 0; announce b 20. 1; announce a 30. 2; announce b 40. 3 ];
  Session_reset.flush f;
  let times = List.rev_map (fun u -> u.Update.time) !emitted in
  Alcotest.(check (list (float 1e-9))) "flush emits in global time order"
    [ 10.; 20.; 30.; 40. ] times;
  let st = Session_reset.stats f in
  check_int "pushed" 4 st.Session_reset.pushed;
  check_int "passed" 4 st.Session_reset.passed;
  check_int "dropped" 0 st.Session_reset.dropped;
  check_int "buffered" 0 st.Session_reset.buffered

(* ---- regressions 2 & 3: measurement cell semantics -------------------- *)

(* A (session, prefix) key with a time-0 baseline, plus a prefix no
   session has ever seen — both derived from a throwaway zero-churn run
   so the real run can inject extras against known state. *)
let baseline_key_and_fresh_prefix () =
  let m = Measurement.run ~dynamics:no_churn (Lazy.force scenario) in
  let s, table0 = Update.Session_map.choose m.Measurement.initial in
  let p, r0 = Prefix.Map.choose table0 in
  let used q =
    Update.Session_map.exists
      (fun _ t -> Prefix.Map.mem q t)
      m.Measurement.initial
  in
  let rec fresh i =
    let q = Prefix.make (Ipv4.of_int_trunc (0xC6336400 + (i * 256))) 24 in
    if used q then fresh (i + 1) else q
  in
  (s, p, r0, fresh 0)

let test_withdraw_counts_as_update () =
  let s, p, r0, _ = baseline_key_and_fresh_prefix () in
  let extras =
    [ { Update.time = 100.; session = s;
        kind = Update.Announce (Route.make p r0.Route.as_path) };
      { Update.time = 200.; session = s; kind = Update.Withdraw p } ]
  in
  let m =
    Measurement.run ~dynamics:no_churn ~extra_updates:extras
      (Lazy.force scenario)
  in
  let cell =
    List.find
      (fun (c : Measurement.cell) ->
         Update.session_equal c.Measurement.key.Measurement.session s
         && Prefix.equal c.Measurement.key.Measurement.prefix p)
      m.Measurement.cells
  in
  (* Pre-fix this was 1: the withdraw was silently excluded. *)
  check_int "announce + withdraw both count" 2 cell.Measurement.updates

let test_withdraw_only_key_is_not_a_cell () =
  let s, _, _, fresh = baseline_key_and_fresh_prefix () in
  let extras =
    [ { Update.time = 100.; session = s; kind = Update.Withdraw fresh } ]
  in
  let m =
    Measurement.run ~dynamics:no_churn ~extra_updates:extras
      (Lazy.force scenario)
  in
  (* Pre-fix this materialized a phantom cell with updates = 0. *)
  check_bool "no cell for a withdraw-only key" true
    (List.for_all
       (fun (c : Measurement.cell) ->
          not (Prefix.equal c.Measurement.key.Measurement.prefix fresh))
       m.Measurement.cells);
  check_bool "and no conformance violation either" true
    (Conformance.check_measurement m = [])

let test_extra_ases_needs_contiguous_residency () =
  let s, p, r0, _ = baseline_key_and_fresh_prefix () in
  let intruder = Asn.of_int 399_999 in
  let with_intruder = intruder :: r0.Route.as_path in
  (* Ten disjoint 40 s appearances: 400 s cumulative, 40 s contiguous. *)
  let extras =
    List.concat
      (List.init 10 (fun k ->
           let t = 600. +. (120. *. float_of_int k) in
           [ { Update.time = t; session = s;
               kind = Update.Announce (Route.make p with_intruder) };
             { Update.time = t +. 40.; session = s;
               kind = Update.Announce (Route.make p r0.Route.as_path) } ]))
  in
  let m =
    Measurement.run ~dynamics:no_churn ~extra_updates:extras
      (Lazy.force scenario)
  in
  let cell =
    List.find
      (fun (c : Measurement.cell) ->
         Update.session_equal c.Measurement.key.Measurement.session s
         && Prefix.equal c.Measurement.key.Measurement.prefix p)
      m.Measurement.cells
  in
  let assoc asn l =
    List.fold_left
      (fun acc (a, d) -> if Asn.equal a asn then acc +. d else acc)
      0. l
  in
  (* Cumulative residency clears the 5-minute bar by a wide margin... *)
  check_bool "cumulative residency ~400 s" true
    (assoc intruder cell.Measurement.residency > 390.);
  (* ...but no single appearance does, so the AS must not count. Pre-fix
     extra_ases thresholded the cumulative sum and reported it. *)
  check_bool "longest run ~40 s" true
    (assoc intruder cell.Measurement.contiguous < 50.);
  check_bool "disjoint stints do not pass the 5-minute rule" true
    (not (Asn.Set.mem intruder (Measurement.extra_ases cell)))

(* ---- pinning: the streaming window obeys the same contiguity rule ----- *)

(* The qs_serve sliding window reimplements the 5-minute rule with armed
   timers instead of sealed cells; this pins both arms to the same
   semantics — longest contiguous run, not cumulative residency — on a
   stream whose stints all straddle 60 s bucket boundaries, where a
   bucket-quantized reimplementation would drift. *)
let test_window_pins_contiguous_rule () =
  let s = session 0 in
  let p = prefix_of 0 in
  let key = { Measurement.session = s; prefix = p } in
  let base_path = [ Asn.of_int 100; Asn.of_int 200 ] in
  let intruder = Asn.of_int 399_999 in
  let with_intruder = intruder :: base_path in
  let feed =
    (* Ten disjoint 40 s stints, 400 s cumulative, each crossing a bucket
       boundary (starts at 90 mod 120): must never fire. *)
    List.concat
      (List.init 10 (fun k ->
           let t = 90. +. (120. *. float_of_int k) in
           [ announce ~path:with_intruder s t 0;
             announce ~path:base_path s (t +. 40.) 0 ]))
    (* ...then one single 310 s run over five bucket boundaries: fires. *)
    @ [ announce ~path:with_intruder s 1530. 0;
        announce ~path:base_path s 1840. 0 ]
  in
  let horizon = 3600. in
  let base_set = Route.as_set (Route.make p base_path) in
  let w = Window.create ~watched:(fun _ -> true) () in
  Window.set_baseline w key base_set;
  let events =
    List.concat_map (fun u -> Window.apply w u) feed
    @ Window.drain w ~horizon
  in
  let acc = Measurement.Acc.create () in
  Measurement.Acc.set_baseline acc base_set;
  List.iter (fun u -> ignore (Measurement.Acc.consume acc u)) feed;
  Measurement.Acc.seal acc horizon;
  let fired =
    List.filter_map
      (function Event.Extra_as { asn; time; run; _ } -> Some (asn, time, run)
              | _ -> None)
      events
  in
  (match fired with
   | [ (a, time, run) ] ->
       check_bool "the intruder fired" true (Asn.equal a intruder);
       (* The timer arms at run entry + threshold: nothing the 400 s of
          disjoint stints accumulated may fire it earlier. *)
       check_bool "not before 1530 + 300" true (time >= 1830.);
       check_bool "reported run is the contiguous one" true
         (run >= 300. && run < 400.)
   | l -> Alcotest.failf "expected exactly one extra-AS event, got %d"
            (List.length l));
  (* And the emitted set equals the batch rule on the sealed cell. *)
  let cell =
    match Measurement.Acc.cell key acc with
    | Some c -> c
    | None -> Alcotest.fail "batch accumulator lost the key"
  in
  check_bool "window emission = batch extra_ases" true
    (Asn.Set.equal
       (Measurement.extra_ases cell)
       (Asn.Set.singleton intruder))

(* ---- Conformance ------------------------------------------------------ *)

let test_conformance_detects_violations () =
  let c = Conformance.create ~duration:1000. () in
  let sink = ref 0 in
  let feed = Conformance.wrap c (fun _ -> incr sink) in
  let a = session 1 and b = session 2 in
  feed (announce a 50. 0);
  feed (announce b 60. 1);
  feed (announce a 55. 2);                          (* global regression *)
  feed (announce a 40. 3);                          (* session regression *)
  feed (announce a 2000. 4);                        (* past the horizon *)
  feed { Update.time = 70.; session = b; kind = Update.Withdraw (prefix_of 9) };
  check_int "wrap forwards everything" 6 !sink;
  check_int "observed" 6 (Conformance.observed c);
  let violations = Conformance.finalize c in
  let count inv =
    List.length
      (List.filter
         (fun (v : Conformance.violation) -> v.Conformance.invariant = inv)
         violations)
  in
  (* 55 and 40 both regress past b's 60, and b's closing withdraw at 70
     lands after the horizon-breaking t=2000 advanced the global clock. *)
  check_int "global-monotonic" 3 (count "global-monotonic");
  check_int "session-monotonic" 1 (count "session-monotonic");
  check_int "horizon" 1 (count "horizon");
  check_int "withdraw-before-announce" 1 (count "withdraw-before-announce")

let test_conformance_clean_stream () =
  (* Boundary times (0 and the horizon itself) and ties, within a session
     and across sessions, are all legal. *)
  let c = Conformance.create ~duration:100. () in
  let a = session 1 and b = session 2 in
  Conformance.observe c (announce a 0. 0);
  Conformance.observe c (announce a 10. 1);
  Conformance.observe c (announce b 10. 2);
  Conformance.observe c (announce a 20. 3);
  Conformance.observe c (announce a 20. 4);
  Conformance.observe c (announce b 100. 5);
  Alcotest.(check (list pass)) "no violations" [] (Conformance.finalize c)

let test_conformance_full_pipeline () =
  let m, violations, observed =
    Conformance.run ~dynamics:tiny_dynamics (Lazy.force scenario)
  in
  List.iter
    (fun v -> Format.eprintf "%a@." Conformance.pp_violation v)
    violations;
  check_int "no violations on a real pipeline" 0 (List.length violations);
  check_bool "cells exist" true (m.Measurement.cells <> []);
  (* No extra updates: the checker saw exactly what the filter passed. *)
  check_int "observed = filter passed"
    (Option.get m.Measurement.filter_stats).Session_reset.passed observed

let test_check_measurement_flags_tampering () =
  let m = Measurement.run ~dynamics:no_churn (Lazy.force scenario) in
  let cell = List.hd m.Measurement.cells in
  let has inv vs =
    List.exists
      (fun (v : Conformance.violation) -> v.Conformance.invariant = inv)
      vs
  in
  let phantom =
    { cell with Measurement.baseline = None; Measurement.updates = 0 }
  in
  check_bool "phantom cell flagged" true
    (has "phantom-cell"
       (Conformance.check_measurement { m with Measurement.cells = [ phantom ] }));
  let overrun =
    { cell with
      Measurement.residency = [ (Asn.of_int 7, m.Measurement.duration +. 10.) ] }
  in
  check_bool "residency overrun flagged" true
    (has "residency-conservation"
       (Conformance.check_measurement { m with Measurement.cells = [ overrun ] }))

(* ---- Differential ----------------------------------------------------- *)

let test_differential_small () =
  let outcomes =
    Differential.run
      ~dynamics:{ Differential.default_dynamics with Dynamics.duration = 6. *. 3600. }
      ~seeds:[ 5 ] Scenario.Small
  in
  List.iter
    (fun o ->
       if not o.Differential.ok then
         Format.eprintf "%a@." Differential.pp_outcome o)
    outcomes;
  check_int "6 pair checks" 6 (List.length outcomes);
  check_bool "all identical" true (Differential.all_ok outcomes)

(* A constructed divergent pair names its first differing line. *)
let test_first_divergence () =
  let lines l emit = List.iter emit l; List.length l in
  let reference = [ "a"; "b"; "c" ] in
  let stream candidate =
    let _, _, d = Differential.stream_divergence ~reference:(lines reference)
        (lines candidate) in
    d
  in
  let check_detail name want got =
    Alcotest.(check (option string)) name want got
  in
  check_detail "equal streams" None (stream reference);
  check_detail "streamed second line" (Some "line 2: \"x\" vs a different line")
    (stream [ "a"; "x"; "c" ]);
  check_detail "only the first divergence" (Some "line 1: \"y\" vs a different line")
    (stream [ "y"; "x"; "c" ]);
  check_detail "candidate runs long" (Some "line 4: \"d\" vs end of output")
    (stream [ "a"; "b"; "c"; "d" ]);
  check_detail "candidate stops short" (Some "line 3: end of output vs a line")
    (stream [ "a"; "b" ]);
  let r, c, _ =
    Differential.stream_divergence ~reference:(lines reference) (lines [ "a" ])
  in
  check_int "both results returned" 4 (r + c)

let test_static_suite_small () =
  (* The dynamic-vs-static soundness oracle: simulated update streams and
     attack wins must stay inside the valley-free closure bounds. *)
  let outcomes = Differential.static ~seeds:[ 1 ] Scenario.Small in
  List.iter
    (fun o ->
       if not o.Differential.ok then
         Format.eprintf "%a@." Differential.pp_outcome o)
    outcomes;
  check_int "one outcome per experiment" 4 (List.length outcomes);
  check_bool "dynamics stay inside the static bounds" true
    (Differential.all_ok outcomes)

(* ---- Fuzz ------------------------------------------------------------- *)

let test_fuzz_mrt () =
  let s = Fuzz.mrt ~seeds:50 () in
  List.iter (fun v -> Format.eprintf "%a@." Fuzz.pp_violation v) s.Fuzz.violations;
  check_bool "mrt fuzz clean" true (Fuzz.ok s);
  check_bool "mutants were rejected" true (s.Fuzz.rejected > 0)

let test_fuzz_session_reset () =
  let s = Fuzz.session_reset ~seeds:25 () in
  List.iter (fun v -> Format.eprintf "%a@." Fuzz.pp_violation v) s.Fuzz.violations;
  check_bool "session-reset fuzz clean" true (Fuzz.ok s)

(* ---- qcheck properties ------------------------------------------------ *)

let prop_conformance_random_churn =
  QCheck.Test.make ~name:"conformance holds over random churn" ~count:4
    QCheck.(int_range 0 7)
    (fun k ->
       let dynamics =
         { Dynamics.short_config with
           Dynamics.duration = 6. *. 3600.;
           base_churn_rate = 0.15 +. (0.1 *. float_of_int k) }
       in
       let _, violations, _ = Conformance.run ~dynamics (Lazy.force scenario) in
       violations = [])

let prop_reset_accounting =
  QCheck.Test.make ~name:"session-reset accounting identity" ~count:50
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 300))
    (fun (seed, n) ->
       let rng = Rng.of_int seed in
       let s = session 7 in
       let f = Session_reset.create ~emit:(fun _ -> ()) () in
       let identity () =
         let st = Session_reset.stats f in
         st.Session_reset.pushed
         = st.Session_reset.passed + st.Session_reset.dropped
           + st.Session_reset.buffered
       in
       let ok = ref true in
       let time = ref 0. in
       for _ = 1 to n do
         (* Occasionally replay a table chunk fast enough to trip the
            burst detector, so the dropped counter is exercised too. *)
         if Rng.int rng 40 = 0 then
           for i = 0 to 149 do
             time := !time +. 0.05;
             Session_reset.push f (announce s !time i)
           done
         else begin
           time := !time +. Rng.float rng 90.;
           Session_reset.push f (announce s !time (Rng.int rng 400))
         end;
         if not (identity ()) then ok := false
       done;
       Session_reset.flush f;
       let st = Session_reset.stats f in
       !ok && identity () && st.Session_reset.buffered = 0)

let prop_mrt_decode_total =
  QCheck.Test.make ~name:"MRT decode never raises on arbitrary bytes"
    ~count:300 QCheck.string
    (fun data ->
       (match Mrt.decode_result data with
        | Ok _ | Error _ -> true
        | exception _ -> false)
       &&
       (match Mrt.decode_rib_result data with
        | Ok _ | Error _ -> true
        | exception _ -> false))

let prop_residency_conservation =
  QCheck.Test.make ~name:"residency conservation over random extras" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
       (* Random churn injected on one baseline key: conservation and
          contiguous <= cumulative must survive arbitrary interleavings
          of announces and withdraws. *)
       let rng = Rng.of_int seed in
       let s, p, r0, _ = baseline_key_and_fresh_prefix () in
       let time = ref 0. in
       let extras =
         List.init 40 (fun _ ->
             time := !time +. Rng.float rng 80.;
             if Rng.int rng 3 = 0 then
               { Update.time = !time; session = s; kind = Update.Withdraw p }
             else
               let path =
                 if Rng.bool rng then r0.Route.as_path
                 else Asn.of_int (399_000 + Rng.int rng 10) :: r0.Route.as_path
               in
               { Update.time = !time; session = s;
                 kind = Update.Announce (Route.make p path) })
       in
       let m =
         Measurement.run ~dynamics:no_churn ~extra_updates:extras
           (Lazy.force scenario)
       in
       Conformance.check_measurement m = [])

let () =
  Alcotest.run "check"
    [ ("regressions",
       [ Alcotest.test_case "flush preserves global order" `Quick
           test_flush_global_order;
         Alcotest.test_case "withdraw counts as update" `Quick
           test_withdraw_counts_as_update;
         Alcotest.test_case "withdraw-only key has no cell" `Quick
           test_withdraw_only_key_is_not_a_cell;
         Alcotest.test_case "extra-AS rule needs contiguity" `Quick
           test_extra_ases_needs_contiguous_residency;
         Alcotest.test_case "streaming window pins the same rule" `Quick
           test_window_pins_contiguous_rule ]);
      ("conformance",
       [ Alcotest.test_case "detects injected violations" `Quick
           test_conformance_detects_violations;
         Alcotest.test_case "clean stream" `Quick test_conformance_clean_stream;
         Alcotest.test_case "full pipeline conforms" `Quick
           test_conformance_full_pipeline;
         Alcotest.test_case "flags tampered measurements" `Quick
           test_check_measurement_flags_tampering ]);
      ("differential",
       [ Alcotest.test_case "pairs identical on Small" `Quick
           test_differential_small;
         Alcotest.test_case "static bounds contain dynamics" `Quick
           test_static_suite_small;
         Alcotest.test_case "first divergent line" `Quick test_first_divergence ]);
      ("fuzz",
       [ Alcotest.test_case "mrt mutation fuzz" `Quick test_fuzz_mrt;
         Alcotest.test_case "session-reset injection fuzz" `Quick
           test_fuzz_session_reset ]);
      ("properties",
       List.map (fun t -> QCheck_alcotest.to_alcotest t)
         [ prop_conformance_random_churn; prop_reset_accounting;
           prop_mrt_decode_total; prop_residency_conservation ]) ]

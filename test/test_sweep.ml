(* Tests for qs_sweep: binding parsing and canonicalization, base-chain
   resolution, row-major matrix expansion, the static validator's problem
   classes (the deeper per-class checks live in test_lint.ml with QS308),
   the dynamics presets, and the runner's determinism contract — equal
   bytes across worker counts and reruns, and measurement-equal results
   for the obs on/off ablation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let entry ?base ?(overlay = []) ?(axes = []) name =
  { Sweep.name; doc = "test entry"; base; overlay; axes }

let set_exn v key value =
  match Sweep.set v ~key ~value with
  | Ok v -> v
  | Error msg -> Alcotest.fail (key ^ "=" ^ value ^ ": " ^ msg)

(* ---- bindings ---------------------------------------------------------- *)

let test_set_parses_and_ranges () =
  let v = Sweep.default_vars in
  check_bool "size" true ((set_exn v "size" "paper").Sweep.size = Scenario.Paper);
  check_int "seed" 7 (set_exn v "seed" "7").Sweep.seed;
  check_bool "churn" true ((set_exn v "churn" "heavy").Sweep.churn = Sweep.Heavy);
  check_bool "obs off" false (set_exn v "obs" "off").Sweep.obs;
  check_bool "guards none" true
    ((set_exn v "guards" "none").Sweep.guards = Sweep.No_guards);
  check_bool "guards rotating" true
    ((set_exn v "guards" "2/15").Sweep.guards
     = Sweep.Guards { n = 2; rotation_days = 15 });
  check_bool "guards never" true
    ((set_exn v "guards" "2/never").Sweep.guards
     = Sweep.Guards { n = 2; rotation_days = max_int });
  let rejected key value =
    match Sweep.set v ~key ~value with Ok _ -> false | Error _ -> true
  in
  check_bool "unknown key rejected" true (rejected "sise" "small");
  check_bool "bad size rejected" true (rejected "size" "medium");
  check_bool "negative seed rejected" true (rejected "seed" "-1");
  check_bool "zero days rejected" true (rejected "days" "0");
  check_bool "oversized days rejected" true (rejected "days" "400");
  check_bool "adversary above 1 rejected" true (rejected "adversary" "1.5");
  check_bool "cache is an unknown key" true (rejected "cache" "512");
  check_bool "delta is a switch, not a capacity" true (rejected "delta" "512");
  check_bool "negative threshold rejected" true (rejected "threshold" "-1");
  check_bool "guards 0/10 rejected" true (rejected "guards" "0/10");
  check_bool "guards garbage rejected" true (rejected "guards" "three");
  check_bool "trace churn accepted" true (not (rejected "churn" "trace-pareto"));
  check_bool "bad consensus rejected" true (rejected "consensus" "thawed");
  check_bool "living consensus accepted" true
    (not (rejected "consensus" "live-hourly"))

let test_canonical_bindings () =
  (* Values normalize: any accepted spelling of one value must produce
     one canonical binding list, because the fingerprint digests it. *)
  let v1 = set_exn Sweep.default_vars "days" "1.0" in
  let v2 = set_exn Sweep.default_vars "days" "1" in
  check_bool "normalized spellings agree" true
    (Sweep.canonical_bindings v1 = Sweep.canonical_bindings v2);
  let keys = List.map fst (Sweep.canonical_bindings Sweep.default_vars) in
  check_bool "keys sorted" true (keys = List.sort String.compare keys);
  check_bool "seed and size excluded" true
    (not (List.mem "seed" keys) && not (List.mem "size" keys));
  let id1 = Sweep.identity Sweep.default_vars in
  let id2 = Sweep.identity (set_exn Sweep.default_vars "seed" "2") in
  check_bool "identity covers the seed" true (id1 <> id2)

(* ---- dynamics presets -------------------------------------------------- *)

let test_dynamics_presets () =
  let v =
    List.fold_left
      (fun v (k, x) -> set_exn v k x)
      Sweep.default_vars
      [ ("days", "2"); ("delta", "off") ]
  in
  let d = Sweep.dynamics v in
  Alcotest.(check (float 1e-6)) "duration" (2. *. 86_400.) d.Dynamics.duration;
  check_bool "delta off" false d.Dynamics.delta;
  let base = Dynamics.short_config in
  let calm = Sweep.dynamics (set_exn v "churn" "calm") in
  check_bool "calm quarters the churn rate" true
    (calm.Dynamics.base_churn_rate = base.Dynamics.base_churn_rate *. 0.25);
  let heavy = Sweep.dynamics (set_exn v "churn" "heavy") in
  check_bool "heavy raises the churn rate" true
    (heavy.Dynamics.base_churn_rate > base.Dynamics.base_churn_rate);
  check_bool "heavy shortens outages" true
    (heavy.Dynamics.mean_outage < base.Dynamics.mean_outage);
  let trace = Sweep.dynamics (set_exn v "churn" "trace-pareto") in
  check_bool "trace layers session churn over baseline rates" true
    (trace.Dynamics.session_churn = Some Churn.pareto_day
     && trace.Dynamics.base_churn_rate = base.Dynamics.base_churn_rate);
  check_bool "other models leave session churn off" true
    (heavy.Dynamics.session_churn = None)

(* ---- expansion --------------------------------------------------------- *)

let test_expansion_row_major () =
  let e = Option.get (Sweep.find Sweep.builtin "seeds-2x2") in
  match Sweep.cells e with
  | Error _ -> Alcotest.fail "seeds-2x2 must expand"
  | Ok cells ->
      check_int "cell count" 4 (List.length cells);
      let bindings = List.map (fun c -> c.Sweep.bindings) cells in
      check_bool "row-major, last axis fastest" true
        (bindings
         = [ [ ("seed", "1"); ("churn", "calm") ];
             [ ("seed", "1"); ("churn", "heavy") ];
             [ ("seed", "2"); ("churn", "calm") ];
             [ ("seed", "2"); ("churn", "heavy") ] ]);
      check_bool "indices sequential" true
        (List.mapi (fun i _ -> i) cells
         = List.map (fun c -> c.Sweep.index) cells);
      check_str "slug" "cell-000-seed=1,churn=calm"
        (Sweep.slug (List.hd cells))

let test_base_chain () =
  let e = Option.get (Sweep.find Sweep.builtin "churn-day") in
  match Sweep.cells e with
  | Error _ -> Alcotest.fail "churn-day must expand"
  | Ok cells ->
      let v = (List.hd cells).Sweep.vars in
      check_bool "base overlay inherited" true
        (v.Sweep.size = Scenario.Small && v.Sweep.days = 1.);
      check_bool "own overlay applied over base" true
        (v.Sweep.churn = Sweep.Heavy)

let test_validate_problems () =
  let problem registry name =
    List.map (fun (i : Sweep.invalid) -> i.Sweep.problem)
      (Sweep.validate ~registry (Option.get (Sweep.find registry name)))
  in
  check_bool "clean entry" true
    (Sweep.validate (entry "ok" ~overlay:[ ("days", "2") ]) = []);
  check_bool "axes not inherited from base" true
    (problem
       [ entry "p" ~axes:[ ("seed", [ "1"; "2" ]) ]; entry "c" ~base:"p" ]
       "c"
     = []);
  check_bool "duplicate cell detected through normalization" true
    (List.mem "duplicate-cell"
       (problem
          [ entry "e" ~axes:[ ("days", [ "1"; "1.0" ]) ] ]
          "e"));
  check_bool "builtin registry valid" true
    (Sweep.validate_registry Sweep.builtin = [])

(* ---- runner determinism ------------------------------------------------ *)

(* A deliberately tiny matrix (about half an hour of simulated Small-world
   BGP per cell) so the determinism contract is checked on every test
   run, not only in CI's full 2x2 sweep. *)
let tiny_axes axes = entry "tiny" ~overlay:[ ("days", "0.02") ] ~axes

let registry_with e = e :: Sweep.builtin

let run_exn ?exec e =
  match Sweep_run.run ~registry:(registry_with e) ?exec e with
  | Ok t -> t
  | Error _ -> Alcotest.fail "tiny matrix must run"

let strip_run (t : Sweep_run.t) =
  ( t.Sweep_run.index_json,
    List.map
      (fun (r : Sweep_run.cell_result) ->
         (r.Sweep_run.slug, r.Sweep_run.fingerprint, r.Sweep_run.summary_json,
          r.Sweep_run.metrics_json))
      t.Sweep_run.results )

let test_run_deterministic () =
  let e = tiny_axes [ ("seed", [ "1"; "2" ]) ] in
  let at jobs = Pool.with_pool ~jobs (fun exec -> strip_run (run_exn ~exec e)) in
  let r1 = at 1 in
  check_bool "jobs=1 equals jobs=2" true (r1 = at 2);
  check_bool "rerun identical" true (r1 = at 1);
  let fingerprints = List.map (fun (_, fp, _, _) -> fp) (snd r1) in
  check_int "distinct cells, distinct fingerprints" 2
    (List.length (List.sort_uniq String.compare fingerprints))

let test_run_obs_ablation () =
  (* The AB-obs contract, ported onto the registry: instrumentation must
     never change a measured number, so the obs=off and obs=on cells
     agree on every headline (their identities still differ — obs is a
     canonical binding). *)
  let t = run_exn (tiny_axes [ ("obs", [ "off"; "on" ]) ]) in
  match t.Sweep_run.results with
  | [ off; on ] ->
      check_bool "headlines identical" true
        (off.Sweep_run.headline = on.Sweep_run.headline);
      check_bool "identities differ" true
        (off.Sweep_run.fingerprint <> on.Sweep_run.fingerprint)
  | _ -> Alcotest.fail "expected two cells"

let test_run_rejects_invalid () =
  let bad = entry "bad" ~overlay:[ ("churn", "torrential") ] in
  match Sweep_run.run ~registry:(registry_with bad) bad with
  | Ok _ -> Alcotest.fail "invalid entry must not run"
  | Error invalids ->
      check_bool "carries the validator's finding" true
        (List.exists
           (fun (i : Sweep.invalid) -> i.Sweep.problem = "bad-value")
           invalids)

(* Trace-shaped churn under the determinism contract: a tiny matrix based
   on the builtin churn-trace-day entry (so its base chain and overlay are
   exercised) must render byte-identical artifacts at jobs=1, jobs=4 and
   on rerun — the generator's merge order, not the worker count, decides
   every byte. *)
let test_run_trace_churn_deterministic () =
  let e =
    { Sweep.name = "trace-tiny";
      doc = "churn-trace-day shortened for the unit suite";
      base = Some "churn-trace-day";
      overlay = [ ("days", "0.05") ];
      axes = [] }
  in
  let at jobs = Pool.with_pool ~jobs (fun exec -> strip_run (run_exn ~exec e)) in
  let r1 = at 1 in
  check_bool "jobs=1 equals jobs=4" true (r1 = at 4);
  check_bool "rerun identical" true (r1 = at 1);
  (match run_exn e with
   | { Sweep_run.results = [ r ]; _ } ->
       check_bool "trace cell sees churn events" true
         (r.Sweep_run.headline.Sweep_run.updates > 0)
   | _ -> Alcotest.fail "expected one cell")

let test_write_layout () =
  let t = run_exn (tiny_axes [ ("seed", [ "1" ]) ]) in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "qs-sweep-test" in
  let written = Sweep_run.write ~dir t in
  check_int "index, table and three files per cell" 5 (List.length written);
  List.iter
    (fun p -> check_bool (p ^ " exists") true (Sys.file_exists p))
    written;
  let slug = (List.hd t.Sweep_run.results).Sweep_run.slug in
  check_bool "summary.json under the slug dir" true
    (List.mem (Filename.concat (Filename.concat dir slug) "summary.json")
       written);
  List.iter Sys.remove written;
  Sys.rmdir (Filename.concat dir slug);
  Sys.rmdir dir

let () =
  Alcotest.run "qs_sweep"
    [ ("bindings",
       [ Alcotest.test_case "set parses and range-checks" `Quick
           test_set_parses_and_ranges;
         Alcotest.test_case "canonical bindings" `Quick
           test_canonical_bindings;
         Alcotest.test_case "dynamics presets" `Quick test_dynamics_presets ]);
      ("expansion",
       [ Alcotest.test_case "row-major order" `Quick test_expansion_row_major;
         Alcotest.test_case "base chain" `Quick test_base_chain;
         Alcotest.test_case "validator problems" `Quick
           test_validate_problems ]);
      ("runner",
       [ Alcotest.test_case "deterministic across jobs and reruns" `Quick
           test_run_deterministic;
         Alcotest.test_case "obs ablation measurement-equal" `Quick
           test_run_obs_ablation;
         Alcotest.test_case "invalid entry rejected" `Quick
           test_run_rejects_invalid;
         Alcotest.test_case "trace churn deterministic across jobs" `Quick
           test_run_trace_churn_deterministic;
         Alcotest.test_case "results layout" `Quick test_write_layout ]) ]

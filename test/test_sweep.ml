(* Tests for qs_sweep: binding labels and canonicalization, row-major
   matrix expansion, the static validator's problem classes (the deeper
   per-class checks live in test_lint.ml with QS308), the dynamics
   presets, and the runner's determinism contract — equal bytes across
   worker counts and reruns, and measurement-equal results for the obs
   on/off ablation. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let entry ?(vars = Sweep.default_vars) ?(axes = []) name =
  { Sweep.name; doc = "test entry"; vars; axes }

let labels (a : Sweep.axis) = List.map fst a.Sweep.points

(* ---- bindings ---------------------------------------------------------- *)

let test_canonical_bindings () =
  (* Axis labels are the printers' spellings, the ones fingerprints
     digest: [%g] floats, on/off switches, N/D guard policies. *)
  check_bool "float labels" true
    (labels (Sweep.days [ 1.; 0.25 ]) = [ "1"; "0.25" ]);
  check_bool "switch labels" true
    (labels (Sweep.delta [ false; true ]) = [ "off"; "on" ]);
  check_bool "guard labels" true
    (labels
       (Sweep.guards
          [ Sweep.No_guards;
            Sweep.Guards { n = 3; rotation_days = 30 };
            Sweep.Guards { n = 1; rotation_days = max_int } ])
     = [ "none"; "3/30"; "1/never" ]);
  let keys = List.map fst (Sweep.canonical_bindings Sweep.default_vars) in
  check_bool "keys sorted" true (keys = List.sort String.compare keys);
  check_bool "seed and size excluded" true
    (not (List.mem "seed" keys) && not (List.mem "size" keys));
  let id1 = Sweep.identity Sweep.default_vars in
  let id2 = Sweep.identity { Sweep.default_vars with Sweep.seed = 2 } in
  check_bool "identity covers the seed" true (id1 <> id2)

(* ---- dynamics presets -------------------------------------------------- *)

let test_dynamics_presets () =
  let v = { Sweep.default_vars with Sweep.days = 2.; delta = false } in
  let d = Sweep.dynamics v in
  Alcotest.(check (float 1e-6)) "duration" (2. *. 86_400.) d.Dynamics.duration;
  check_bool "delta off" false d.Dynamics.delta;
  let base = Dynamics.short_config in
  let with_churn churn = Sweep.dynamics { v with Sweep.churn } in
  let calm = with_churn Sweep.Calm in
  check_bool "calm quarters the churn rate" true
    (calm.Dynamics.base_churn_rate = base.Dynamics.base_churn_rate *. 0.25);
  let heavy = with_churn Sweep.Heavy in
  check_bool "heavy raises the churn rate" true
    (heavy.Dynamics.base_churn_rate > base.Dynamics.base_churn_rate);
  check_bool "heavy shortens outages" true
    (heavy.Dynamics.mean_outage < base.Dynamics.mean_outage);
  let trace = with_churn Sweep.Trace_pareto in
  check_bool "trace layers session churn over baseline rates" true
    (trace.Dynamics.session_churn = Some Churn.pareto_day
     && trace.Dynamics.base_churn_rate = base.Dynamics.base_churn_rate);
  check_bool "other models leave session churn off" true
    (heavy.Dynamics.session_churn = None)

(* ---- expansion --------------------------------------------------------- *)

let test_expansion_row_major () =
  let e = Option.get (Sweep.find Sweep.builtin "seeds-2x2") in
  let cells = Sweep.cells e in
  check_int "cell count" 4 (List.length cells);
  let bindings = List.map (fun c -> c.Sweep.bindings) cells in
  check_bool "row-major, last axis fastest" true
    (bindings
     = [ [ ("seed", "1"); ("churn", "calm") ];
         [ ("seed", "1"); ("churn", "heavy") ];
         [ ("seed", "2"); ("churn", "calm") ];
         [ ("seed", "2"); ("churn", "heavy") ] ]);
  check_bool "indices sequential" true
    (List.mapi (fun i _ -> i) cells = List.map (fun c -> c.Sweep.index) cells);
  check_bool "axis values applied over the entry's vars" true
    (List.map
       (fun c -> (c.Sweep.vars.Sweep.seed, c.Sweep.vars.Sweep.days))
       cells
     = [ (1, 0.25); (1, 0.25); (2, 0.25); (2, 0.25) ]);
  check_str "slug" "cell-000-seed=1,churn=calm" (Sweep.slug (List.hd cells))

let test_validate_problems () =
  let problems e =
    List.map (fun (i : Sweep.invalid) -> i.Sweep.problem) (Sweep.validate e)
  in
  check_bool "clean entry" true
    (problems (entry "ok" ~axes:[ Sweep.days [ 1.; 2. ] ]) = []);
  check_bool "no axes: one cell" true
    (List.length (Sweep.cells (entry "one")) = 1);
  check_bool "empty axis: no cells" true
    (Sweep.cells (entry "none" ~axes:[ Sweep.seed [] ]) = []
     && problems (entry "none" ~axes:[ Sweep.seed [] ]) = [ "empty-axis" ]);
  check_bool "duplicate cell detected" true
    (problems (entry "e" ~axes:[ Sweep.days [ 1.; 1. ] ])
     = [ "duplicate-cell" ]);
  check_bool "builtin registry valid" true
    (Sweep.validate_registry Sweep.builtin = [])

(* ---- runner determinism ------------------------------------------------ *)

(* A deliberately tiny matrix (about half an hour of simulated Small-world
   BGP per cell) so the determinism contract is checked on every test
   run, not only in CI's full 2x2 sweep. *)
let tiny_axes axes =
  entry "tiny" ~vars:{ Sweep.default_vars with Sweep.days = 0.02 } ~axes

let strip_run (t : Sweep_run.t) =
  ( t.Sweep_run.index_json,
    List.map
      (fun (r : Sweep_run.cell_result) ->
         (r.Sweep_run.slug, r.Sweep_run.fingerprint, r.Sweep_run.summary_json,
          r.Sweep_run.metrics_json))
      t.Sweep_run.results )

let test_run_deterministic () =
  let e = tiny_axes [ Sweep.seed [ 1; 2 ] ] in
  let at jobs =
    Pool.with_pool ~jobs (fun exec -> strip_run (Sweep_run.run ~exec e))
  in
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
  let t = Sweep_run.run (tiny_axes [ Sweep.obs [ false; true ] ]) in
  match t.Sweep_run.results with
  | [ off; on ] ->
      check_bool "headlines identical" true
        (off.Sweep_run.headline = on.Sweep_run.headline);
      check_bool "identities differ" true
        (off.Sweep_run.fingerprint <> on.Sweep_run.fingerprint)
  | _ -> Alcotest.fail "expected two cells"

let test_run_rejects_invalid () =
  let bad = tiny_axes [ Sweep.churn [ Sweep.Heavy; Sweep.Heavy ] ] in
  match Sweep_run.run bad with
  | _ -> Alcotest.fail "invalid entry must not run"
  | exception Invalid_argument msg ->
      check_bool "carries the validator's finding" true
        (msg = "Sweep_run.run: " ^ (List.hd (Sweep.validate bad)).Sweep.message)

(* Trace-shaped churn under the determinism contract: a tiny matrix with
   the builtin churn-trace-day entry's vars must render byte-identical
   artifacts at jobs=1, jobs=4 and on rerun — the generator's merge
   order, not the worker count, decides every byte. *)
let test_run_trace_churn_deterministic () =
  let trace = Option.get (Sweep.find Sweep.builtin "churn-trace-day") in
  let e =
    entry "trace-tiny" ~vars:{ trace.Sweep.vars with Sweep.days = 0.05 }
  in
  let at jobs =
    Pool.with_pool ~jobs (fun exec -> strip_run (Sweep_run.run ~exec e))
  in
  let r1 = at 1 in
  check_bool "jobs=1 equals jobs=4" true (r1 = at 4);
  check_bool "rerun identical" true (r1 = at 1);
  (match Sweep_run.run e with
   | { Sweep_run.results = [ r ]; _ } ->
       check_bool "trace cell sees churn events" true
         (r.Sweep_run.headline.Sweep_run.updates > 0)
   | _ -> Alcotest.fail "expected one cell")

let test_write_layout () =
  let t = Sweep_run.run (tiny_axes [ Sweep.seed [ 1 ] ]) in
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
       [ Alcotest.test_case "canonical bindings" `Quick
           test_canonical_bindings;
         Alcotest.test_case "dynamics presets" `Quick test_dynamics_presets ]);
      ("expansion",
       [ Alcotest.test_case "row-major order" `Quick test_expansion_row_major;
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

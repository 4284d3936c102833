(* JSON rendering, local and deliberately boring: every byte of a cell's
   artifacts must be a pure function of its vars, so no timing, no worker
   count, no hashtable order ever reaches a buffer here. *)

let jstr s = "\"" ^ Export.json_escape s ^ "\""

let json_float x = Format.asprintf "%a" Export.json_float x

let jobj fields =
  if fields = [] then "{}"
  else
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (k, v) -> "  " ^ jstr k ^ ": " ^ v) fields)
    ^ "\n}"

(* Nested object rendered for embedding at one indent level. *)
let jobj_inline fields =
  if fields = [] then "{}"
  else
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
    ^ "}"

type headline = {
  updates : int;
  path_changes : int;
  f3l_cases : int;
  frac_above_one : float;
  f3r_cases : int;
  frac_at_least_2 : float;
  max_extras : int;
  compromise : (float * float) option;
  m2_compromised : float option;
}

type cell_result = {
  cell : Sweep.cell;
  slug : string;
  fingerprint : string;
  headline : headline;
  summary_json : string;
  metrics_json : string;
}

type t = {
  entry : Sweep.entry;
  results : cell_result list;
  index_json : string;
}

let vars_fields (v : Sweep.vars) =
  [ ("size", jstr (Scenario.size_to_string v.Sweep.size));
    ("seed", string_of_int v.Sweep.seed);
    ("days", json_float v.Sweep.days);
    ("churn", jstr (Sweep.churn_to_string v.Sweep.churn));
    ("consensus", jstr (Sweep.consensus_to_string v.Sweep.consensus));
    ("delta", if v.Sweep.delta then "true" else "false");
    ("obs", if v.Sweep.obs then "true" else "false");
    ("adversary", json_float v.Sweep.adversary);
    ("guards", jstr (Sweep.guards_to_string v.Sweep.guards));
    ("threshold", json_float v.Sweep.threshold) ]

let guards_l = function
  | Sweep.No_guards -> 1
  | Sweep.Guards { n; _ } -> n

let summary_json_of ~entry ~slug ~fingerprint (c : Sweep.cell)
    (m : Measurement.t) (f3l : Path_changes.t) (f3r : As_exposure.t)
    compromise m2 =
  let v = c.Sweep.vars in
  let d = m.Measurement.dyn_stats in
  jobj
    [ ("schema", jstr "qs-sweep/1");
      ("entry", jstr entry);
      ("cell", jstr slug);
      ("index", string_of_int c.Sweep.index);
      ("fingerprint", jstr fingerprint);
      ("vars", jobj_inline (vars_fields v));
      ( "bindings",
        jobj_inline (List.map (fun (k, x) -> (k, jstr x)) c.Sweep.bindings) );
      ( "dataset",
        jobj_inline
          [ ("ases", string_of_int (As_graph.num_ases m.Measurement.scenario.Scenario.graph));
            ("links", string_of_int (As_graph.num_links m.Measurement.scenario.Scenario.graph));
            ("prefixes", string_of_int (Addressing.count m.Measurement.scenario.Scenario.addressing));
            ("relays", string_of_int (Array.length m.Measurement.scenario.Scenario.consensus.Consensus.relays));
            ("sessions", string_of_int m.Measurement.n_sessions) ] );
      ( "dynamics",
        jobj_inline
          [ ("churn_events", string_of_int d.Dynamics.churn_events);
            ("updates", string_of_int d.Dynamics.updates_emitted);
            ("announces", string_of_int d.Dynamics.announces);
            ("withdraws", string_of_int d.Dynamics.withdraws);
            ("full_recomputations", string_of_int d.Dynamics.full_recomputations);
            ("delta_steps", string_of_int d.Dynamics.delta_steps) ] );
      ( "f3l",
        jobj_inline
          [ ("cases", string_of_int (List.length f3l.Path_changes.ratios));
            ("frac_above_one", json_float f3l.Path_changes.frac_above_one);
            ("max_ratio", json_float f3l.Path_changes.max_ratio) ] );
      ( "f3r",
        jobj_inline
          [ ("threshold", json_float f3r.As_exposure.threshold);
            ("cases", string_of_int (List.length f3r.As_exposure.extras));
            ("frac_at_least_2", json_float f3r.As_exposure.frac_at_least_2);
            ("frac_above_5", json_float f3r.As_exposure.frac_above_5);
            ("max_extras", string_of_int f3r.As_exposure.max_extras) ] );
      ( "compromise",
        match compromise with
        | None -> "null"
        | Some (static, dynamic) ->
            jobj_inline
              [ ("f", json_float v.Sweep.adversary);
                ("l", string_of_int (guards_l v.Sweep.guards));
                ("static", json_float static);
                ("dynamic", json_float dynamic) ] );
      ( "m2",
        match m2 with
        | None -> "null"
        | Some (o : Long_term.outcome) ->
            jobj_inline
              [ ("consensus", jstr (Sweep.consensus_to_string v.Sweep.consensus));
                ("clients", string_of_int o.Long_term.clients);
                ("compromised_fraction",
                 json_float o.Long_term.compromised_fraction);
                ("median_day",
                 (match o.Long_term.median_day with
                  | None -> "null"
                  | Some d -> string_of_int d));
                ("mean_exposed_per_day",
                 json_float o.Long_term.mean_exposed_per_day) ] ) ]

(* The cell's qs-obs/1 export is rebuilt by hand from the cell's own
   deterministic numbers rather than snapshotted from the process-wide
   registry: the registry's shards see every cell a worker domain ran, so
   a snapshot would depend on scheduling and [--jobs]. Hand-built samples
   reuse the exact export renderer, so downstream tooling sees one
   schema. *)
let cell_samples (m : Measurement.t) (f3l : Path_changes.t)
    (f3r : As_exposure.t) total_changes m2 =
  let d = m.Measurement.dyn_stats in
  let c name value : Metrics.sample =
    { Metrics.name = "sweep.cell." ^ name;
      help = "per-cell deterministic count";
      value = Metrics.Counter_v value }
  in
  let g name value : Metrics.sample =
    { Metrics.name = "sweep.cell." ^ name;
      help = "per-cell deterministic statistic";
      value =
        (if Float.is_finite value then Metrics.Gauge_v (Some value)
         else Metrics.Gauge_v None) }
  in
  List.sort
    (fun (a : Metrics.sample) b -> String.compare a.Metrics.name b.Metrics.name)
    ([ c "updates" d.Dynamics.updates_emitted;
      c "announces" d.Dynamics.announces;
      c "withdraws" d.Dynamics.withdraws;
      c "churn_events" d.Dynamics.churn_events;
      c "full_recomputations" d.Dynamics.full_recomputations;
      c "delta_steps" d.Dynamics.delta_steps;
      c "path_changes" total_changes;
      c "cases_f3l" (List.length f3l.Path_changes.ratios);
      c "cases_f3r" (List.length f3r.As_exposure.extras);
      c "max_extras" f3r.As_exposure.max_extras;
      g "frac_above_one" f3l.Path_changes.frac_above_one;
      g "max_ratio" f3l.Path_changes.max_ratio;
      g "frac_at_least_2" f3r.As_exposure.frac_at_least_2;
      g "frac_above_5" f3r.As_exposure.frac_above_5 ]
     @ (match m2 with
        | None -> []
        | Some (o : Long_term.outcome) ->
            [ c "m2_clients" o.Long_term.clients;
              g "m2_compromised_fraction" o.Long_term.compromised_fraction;
              g "m2_mean_exposed_per_day" o.Long_term.mean_exposed_per_day ]))

let run_cell entry_name (c : Sweep.cell) =
  let v = c.Sweep.vars in
  let t0 = Clock.now () in
  let prev_enabled = Metrics.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled prev_enabled;
      Metrics.observe Manifest.sweep_cell_seconds (Clock.now () -. t0))
  @@ fun () ->
  Metrics.set_enabled v.Sweep.obs;
  (* Intra-cell stages run on an inline jobs=1 pool: this function may
     itself be a task on the matrix pool, and submitting back into the
     pool you run on deadlocks by design. An inline pool spawns no
     domains, so results cannot depend on nesting depth. *)
  Pool.with_pool ~jobs:1 @@ fun inline ->
  let scenario = Scenario.build ~seed:v.Sweep.seed v.Sweep.size in
  let m = Measurement.run ~dynamics:(Sweep.dynamics v) scenario in
  let f3l = Path_changes.compute ~exec:inline m in
  let f3r = As_exposure.compute ~threshold:v.Sweep.threshold ~exec:inline m in
  let compromise =
    if v.Sweep.adversary > 0. then
      Some
        (Compromise.exposure_based ~f:v.Sweep.adversary
           ~l:(guards_l v.Sweep.guards) f3r)
    else None
  in
  (* The M2 long-term stage, gated on the consensus key: a small client
     cohort against the cell's adversary fraction, on the frozen snapshot
     or under living epochs. Deterministic in the cell vars: its RNG is
     the scenario's dedicated "sweep-m2" stream and the epoch sequence is
     a pure function of (scenario, params, horizon). *)
  let m2 =
    match v.Sweep.consensus with
    | Sweep.Frozen -> None
    | cm ->
        let n_guards, rotation_days, use_guards =
          match v.Sweep.guards with
          | Sweep.No_guards -> (1, max_int, false)
          | Sweep.Guards { n; rotation_days } -> (n, rotation_days, true)
        in
        let config =
          { Long_term.default_config with
            Long_term.n_clients = 8;
            horizon_days = 30;
            f = (if v.Sweep.adversary > 0. then v.Sweep.adversary else 0.05);
            n_guards;
            rotation_days;
            use_guards }
        in
        let living =
          match cm with
          | Sweep.Frozen | Sweep.Frozen_m2 -> None
          | Sweep.Live_hourly ->
              Some
                (Long_term.living_consensus
                   ~horizon_days:config.Long_term.horizon_days scenario)
          | Sweep.Live_heavy ->
              Some
                (Long_term.living_consensus
                   ~params:Consensus_dynamics.heavy_params
                   ~horizon_days:config.Long_term.horizon_days scenario)
        in
        Some
          (Long_term.run
             ~rng:(Scenario.rng_for scenario "sweep-m2")
             ~config ?living ~exec:inline scenario)
  in
  let fingerprint =
    Scenario.fingerprint ~exec:inline
      ~params:(Sweep.canonical_bindings v) scenario
  in
  let slug = Sweep.slug c in
  let total_changes =
    List.fold_left
      (fun acc cell -> acc + Measurement.changes_of cell)
      0 m.Measurement.cells
  in
  let headline =
    { updates = m.Measurement.dyn_stats.Dynamics.updates_emitted;
      path_changes = total_changes;
      f3l_cases = List.length f3l.Path_changes.ratios;
      frac_above_one = f3l.Path_changes.frac_above_one;
      f3r_cases = List.length f3r.As_exposure.extras;
      frac_at_least_2 = f3r.As_exposure.frac_at_least_2;
      max_extras = f3r.As_exposure.max_extras;
      compromise;
      m2_compromised =
        Option.map (fun o -> o.Long_term.compromised_fraction) m2 }
  in
  { cell = c;
    slug;
    fingerprint;
    headline;
    summary_json =
      summary_json_of ~entry:entry_name ~slug ~fingerprint c m f3l f3r
        compromise m2;
    metrics_json =
      Export.metrics_json_string (cell_samples m f3l f3r total_changes m2) }

let index_json_of (entry : Sweep.entry) results =
  jobj
    [ ("schema", jstr "qs-sweep-index/1");
      ("entry", jstr entry.Sweep.name);
      ("doc", jstr entry.Sweep.doc);
      ( "axes",
        jobj_inline
          (List.map
             (fun (a : Sweep.axis) ->
               let labels = List.map (fun (l, _) -> jstr l) a.Sweep.points in
               (a.Sweep.key, "[" ^ String.concat ", " labels ^ "]"))
             entry.Sweep.axes) );
      ( "cells",
        "[\n"
        ^ String.concat ",\n"
            (List.map
               (fun r ->
                 "    "
                 ^ jobj_inline
                     [ ("index", string_of_int r.cell.Sweep.index);
                       ("slug", jstr r.slug);
                       ("fingerprint", jstr r.fingerprint);
                       ( "bindings",
                         jobj_inline
                           (List.map
                              (fun (k, x) -> (k, jstr x))
                              r.cell.Sweep.bindings) ) ])
               results)
        ^ "\n  ]" ) ]

let run ?exec entry =
  (match Sweep.validate entry with
   | [] -> ()
   | i :: _ -> invalid_arg ("Sweep_run.run: " ^ i.Sweep.message));
  let cells = Sweep.cells entry in
  Metrics.incr Manifest.sweep_runs;
  Metrics.add Manifest.sweep_cells (List.length cells);
  let pool = match exec with Some p -> p | None -> Pool.default () in
  (* [Metrics.set_enabled] is process-global, so a matrix with an
     obs=off cell must not run cells concurrently — one cell's toggle
     would silence its neighbours' instrumentation mid-run. Results
     are vars-pure either way; only the wall-clock differs. *)
  let serial = List.exists (fun c -> not c.Sweep.vars.Sweep.obs) cells in
  let results =
    if serial then List.map (run_cell entry.Sweep.name) cells
    else Pool.map_list pool (run_cell entry.Sweep.name) cells
  in
  { entry; results; index_json = index_json_of entry results }

let print_table ppf t =
  let open Format in
  fprintf ppf "@[<v>matrix %s: %d cell%s@,"
    t.entry.Sweep.name (List.length t.results)
    (if List.length t.results = 1 then "" else "s");
  fprintf ppf "%-42s %9s %8s %8s %8s %6s %10s %8s@,"
    "cell" "updates" "changes" "f3l>1" "f3r>=2" "max" "compromise" "m2";
  List.iter
    (fun r ->
      let h = r.headline in
      fprintf ppf "%-42s %9d %8d %8.3f %8.3f %6d %10s %8s@,"
        r.slug h.updates h.path_changes h.frac_above_one h.frac_at_least_2
        h.max_extras
        (match h.compromise with
         | None -> "-"
         | Some (_, dynamic) -> Printf.sprintf "%.4f" dynamic)
        (match h.m2_compromised with
         | None -> "-"
         | Some f -> Printf.sprintf "%.4f" f))
    t.results;
  fprintf ppf "@]"

let table_string t =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  print_table ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write ~dir t =
  mkdir_p dir;
  let written = ref [] in
  let emit path contents =
    write_file path contents;
    written := path :: !written
  in
  emit (Filename.concat dir "index.json") (t.index_json ^ "\n");
  emit (Filename.concat dir "table.txt") (table_string t ^ "\n");
  List.iter
    (fun r ->
      let cell_dir = Filename.concat dir r.slug in
      mkdir_p cell_dir;
      emit (Filename.concat cell_dir "summary.json") (r.summary_json ^ "\n");
      emit (Filename.concat cell_dir "metrics.json") r.metrics_json;
      emit (Filename.concat cell_dir "fingerprint") (r.fingerprint ^ "\n"))
    t.results;
  List.rev !written

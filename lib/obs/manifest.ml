(* Every shipped metric, registered here and nowhere else; instrumented
   modules write through these handles.  Registering a name twice
   raises, so the schema cannot drift into two copies. *)

(* Parallel execution ([Qs_exec.Pool]): counts are exact and
   scheduling-independent — one [exec.sweeps] increment and one
   observation per histogram per sweep — while the histogram sums carry
   the wall-clock time. *)
let exec_sweeps =
  Metrics.counter ~help:"parallel sweeps submitted" "exec.sweeps"

let exec_chunks = Metrics.counter ~help:"chunks across all sweeps" "exec.chunks"
let exec_jobs = Metrics.gauge ~help:"width of the last pool created" "exec.jobs"

let exec_sweep_seconds =
  Metrics.histogram ~help:"caller wall seconds per sweep" "exec.sweep_seconds"

let exec_busy_seconds =
  Metrics.histogram ~help:"summed domain-busy seconds per sweep"
    "exec.busy_seconds"

let exec_wait_seconds =
  Metrics.histogram ~help:"summed worker-wait seconds per sweep"
    "exec.wait_seconds"

(* Tracing ([Span]). *)
let obs_spans = Metrics.counter ~help:"spans recorded" "obs.spans"

(* Trace churn ([Qs_churn.Churn]). *)
let churn_trace_events =
  Metrics.counter "churn.trace_events" ~help:"trace churn events generated"

let churn_trace_entities =
  Metrics.counter "churn.trace_entities"
    ~help:"entities given trace churn sessions"

(* BGP dynamics ([Qs_bgp.Dynamics]): mirrors of [Dynamics.stats],
   bulk-added once per run so a process that drives several dynamics
   runs accumulates across them. *)
let dynamics_churn_events =
  Metrics.counter ~help:"churn events applied" "dynamics.churn_events"

let dynamics_updates_emitted =
  Metrics.counter ~help:"updates emitted" "dynamics.updates_emitted"

let dynamics_announces =
  Metrics.counter ~help:"announcements emitted" "dynamics.announces"

let dynamics_withdraws =
  Metrics.counter ~help:"withdrawals emitted" "dynamics.withdraws"

let dynamics_full_recomputations =
  Metrics.counter ~help:"full route recomputations"
    "dynamics.full_recomputations"

let dynamics_delta_steps =
  Metrics.counter ~help:"incremental delta repairs" "dynamics.delta_steps"

let dynamics_delta_stop_early =
  Metrics.counter ~help:"delta link repairs proven no-ops"
    "dynamics.delta_stop_early"

let dynamics_delta_frontier =
  Metrics.histogram ~help:"ASes touched per delta step"
    ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.;
                2048.; 4096. |]
    "dynamics.delta_frontier"

let dynamics_post_horizon_dropped =
  Metrics.counter ~help:"updates dropped past horizon"
    "dynamics.post_horizon_dropped"

(* Session-reset filter ([Qs_bgp.Session_reset]): mirrors of its
   accounting (pushed = passed + dropped + buffered). *)
let session_reset_pushed =
  Metrics.counter ~help:"updates entering the filter" "session_reset.pushed"

let session_reset_passed =
  Metrics.counter ~help:"updates emitted by the filter" "session_reset.passed"

let session_reset_dropped =
  Metrics.counter ~help:"updates dropped as table transfer"
    "session_reset.dropped"

let session_reset_bursts =
  Metrics.counter ~help:"table-transfer bursts detected" "session_reset.bursts"

(* Attacks ([Qs_attacks.Hijack], [Qs_attacks.Interception]). *)
let attack_hijack_runs =
  Metrics.counter ~help:"hijack propagations simulated" "attack.hijack.runs"

let attack_interception_runs =
  Metrics.counter ~help:"interception attempts simulated"
    "attack.interception.runs"

(* Living consensus ([Qs_tor.Consensus_dynamics]). *)
let consensus_epochs =
  Metrics.counter "consensus.epochs" ~help:"consensus epochs generated"

let consensus_relays_joined =
  Metrics.counter "consensus.relays_joined"
    ~help:"relay arrivals across generated epochs"

let consensus_relays_departed =
  Metrics.counter "consensus.relays_departed"
    ~help:"relay departures across generated epochs"

(* Static attack surface ([Qs_analysis.Static_surface]). *)
let surface_closures =
  Metrics.counter ~help:"valley-free closures computed" "surface.closures"

let surface_pairs =
  Metrics.counter ~help:"(client, guard) pairs evaluated" "surface.pairs"

let surface_adversaries =
  Metrics.counter ~help:"candidate adversaries evaluated" "surface.adversaries"

(* Scenarios and measurement ([Qs_core]): one bulk add per measurement
   run, so counts are exact at any worker count. *)
let scenario_builds = Metrics.counter ~help:"scenarios built" "scenario.builds"

let measurement_updates =
  Metrics.counter ~help:"updates consumed by measurement" "measurement.updates"

let measurement_cells =
  Metrics.counter ~help:"(session, prefix) cells materialized"
    "measurement.cells"

(* Sweeps ([Qs_sweep.Sweep_run]). *)
let sweep_runs = Metrics.counter ~help:"sweep matrices executed" "sweep.runs"
let sweep_cells = Metrics.counter ~help:"sweep cells executed" "sweep.cells"

let sweep_cell_seconds =
  Metrics.histogram ~help:"wall-clock per sweep cell" "sweep.cell_seconds"

(* The streaming monitor's health surface ([Qs_serve.Serve]). *)
let serve_ingested =
  Metrics.counter ~help:"updates offered to the serve ingest queue"
    "serve.ingested"

let serve_released =
  Metrics.counter ~help:"updates released past the watermark into the window"
    "serve.released"

let serve_dropped_late =
  Metrics.counter ~help:"updates dropped as older than the watermark"
    "serve.dropped_late"

let serve_dropped_overflow =
  Metrics.counter ~help:"updates dropped on a full ingest queue"
    "serve.dropped_overflow"

let serve_queue_depth =
  Metrics.gauge ~help:"updates currently buffered in the ingest queue"
    "serve.queue_depth"

let serve_watermark_lag =
  Metrics.gauge ~help:"seconds between the newest ingested update and the \
                       window's watermark"
    "serve.watermark_lag"

let serve_live_keys =
  Metrics.gauge ~help:"(session, prefix) keys live in the sliding window"
    "serve.live_keys"

let serve_ghost_keys =
  Metrics.gauge ~help:"evicted keys parked as ghosts" "serve.ghost_keys"

let serve_evictions =
  Metrics.counter ~help:"window evictions of dead keys" "serve.evictions"

let serve_events =
  Metrics.counter ~help:"events emitted on the subscription channel"
    "serve.events"

let serve_alerts = Metrics.counter ~help:"alerts raised" "serve.alerts"

let serve_alerts_moas =
  Metrics.counter ~help:"MOAS alerts raised" "serve.alerts_moas"

let serve_alerts_subprefix =
  Metrics.counter ~help:"sub-prefix alerts raised" "serve.alerts_subprefix"

let serve_alerts_adjacency =
  Metrics.counter ~help:"origin-adjacency alerts raised"
    "serve.alerts_adjacency"

let serve_violations =
  Metrics.counter ~help:"conformance violations on the live stream"
    "serve.violations"

let serve_update_seconds =
  Metrics.histogram
    ~help:"wall seconds per released update (batch average, timing-derived)"
    "serve.update_seconds"

(** The metric schema: every metric the pipeline ships, registered once.

    This module is the only registration site outside tests (rule 8 of
    [tools/check_mli.sh] enforces it); instrumented modules write
    through the handles below. A binary that links any instrumented
    module links this one, so its registry always holds the full schema,
    and {!Metrics.counter} and friends raise on a second registration of
    a name, so two declarations of one metric fail at start-up. Names
    under ["test."] are left to test suites. *)

(** {1 Parallel execution ([Qs_exec.Pool])} *)

val exec_sweeps : Metrics.counter
val exec_chunks : Metrics.counter
val exec_jobs : Metrics.gauge
val exec_sweep_seconds : Metrics.histogram
val exec_busy_seconds : Metrics.histogram
val exec_wait_seconds : Metrics.histogram

(** {1 Tracing, churn and dynamics} *)

val obs_spans : Metrics.counter
val churn_trace_events : Metrics.counter
val churn_trace_entities : Metrics.counter
val dynamics_churn_events : Metrics.counter
val dynamics_updates_emitted : Metrics.counter
val dynamics_announces : Metrics.counter
val dynamics_withdraws : Metrics.counter
val dynamics_full_recomputations : Metrics.counter
val dynamics_delta_steps : Metrics.counter
val dynamics_delta_stop_early : Metrics.counter

val dynamics_delta_frontier : Metrics.histogram
(** Buckets at 0 and the powers of two up to 4096. *)

val dynamics_post_horizon_dropped : Metrics.counter
val session_reset_pushed : Metrics.counter
val session_reset_passed : Metrics.counter
val session_reset_dropped : Metrics.counter
val session_reset_bursts : Metrics.counter

(** {1 Attacks, consensus and the static surface} *)

val attack_hijack_runs : Metrics.counter
val attack_interception_runs : Metrics.counter
val consensus_epochs : Metrics.counter
val consensus_relays_joined : Metrics.counter
val consensus_relays_departed : Metrics.counter
val surface_closures : Metrics.counter
val surface_pairs : Metrics.counter
val surface_adversaries : Metrics.counter

(** {1 Scenarios, measurement and sweeps} *)

val scenario_builds : Metrics.counter
val measurement_updates : Metrics.counter
val measurement_cells : Metrics.counter
val sweep_runs : Metrics.counter
val sweep_cells : Metrics.counter
val sweep_cell_seconds : Metrics.histogram

(** {1 The streaming monitor's health surface ([Qs_serve.Serve])} *)

val serve_ingested : Metrics.counter
val serve_released : Metrics.counter
val serve_dropped_late : Metrics.counter
val serve_dropped_overflow : Metrics.counter
val serve_queue_depth : Metrics.gauge
val serve_watermark_lag : Metrics.gauge
val serve_live_keys : Metrics.gauge
val serve_ghost_keys : Metrics.gauge
val serve_evictions : Metrics.counter
val serve_events : Metrics.counter
val serve_alerts : Metrics.counter
val serve_alerts_moas : Metrics.counter
val serve_alerts_subprefix : Metrics.counter
val serve_alerts_adjacency : Metrics.counter
val serve_violations : Metrics.counter
val serve_update_seconds : Metrics.histogram

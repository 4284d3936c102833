(** Event-driven interdomain routing dynamics.

    Simulates the processes that make BGP paths change over a measurement
    period — the raw material of the paper's §4 study:

    - {b per-prefix churn}: re-homing flaps (an origin's provider link goes
      down and comes back), upstream link flaps, and traffic-engineering
      prepending changes. Per-prefix churn rates are heavy-tailed
      (Pareto-distributed multipliers), and prefixes originated by hosting
      ASes (where Tor relays concentrate) churn more — datacenters do
      aggressive TE and attract attacks; this is the generative assumption
      behind the paper's measured "Tor prefixes see more path changes";
    - {b global events}: core transit links failing and recovering,
      affecting many prefixes at once;
    - {b convergence path exploration}: when a path changes, a session may
      transiently announce alternate candidate routes before settling
      (MRAI-spaced), the §3.1 "far-flung ASes get a temporary look" effect;
    - {b session resets}: collector sessions occasionally reset and replay
      their whole table (to be filtered out by {!Session_reset}).

    The simulator maintains ground truth (which updates are reset
    artifacts, which links failed when) so that detection and measurement
    code can be evaluated against it. All updates are emitted in
    non-decreasing time order. *)

type config = {
  duration : float;              (** simulated seconds (default: 30 days) *)
  base_churn_rate : float;       (** mean churn events per background prefix
                                     per [duration] *)
  mean_outage : float;           (** mean duration of a perturbation, s *)
  global_link_events : int;      (** number of core-link failures *)
  mean_global_outage : float;
  resets_per_session : float;    (** expected session resets per session *)
  pathological_prefixes : int;   (** super-flappers among hosting prefixes
                                     (the paper's 2000x-median anecdote) *)
  pathological_multiplier : float;
  delta : bool;                  (** incremental repair: one
                                     {!Propagate.Delta} state per origin,
                                     resident for the whole run; [false]
                                     computes every request from scratch
                                     with {!Propagate.compute}. The stream
                                     is byte-identical either way — delta
                                     repair reaches the same unique fixed
                                     point, it just does O(affected) work
                                     ([check --suite delta] enforces this)
                                     (default: [true]). *)
  session_churn : Churn.config option;
      (** trace-shaped session churn: per-origin heavy-tailed up/down
          alternating-renewal processes ({!Qs_churn.Churn}) layered on
          top of the Poisson link-failure processes above. A Down event
          fails every uplink of its origin AS at once (skipping links
          some other process already failed); the matching Up restores
          exactly those links — even past the horizon, so
          [final_failed] still returns to baseline. [None] (the
          default) keeps the stream byte-identical to before the field
          existed. *)
}
(** The knobs callers vary. [base_churn_rate], [global_link_events],
    [resets_per_session] and [pathological_prefixes] are counts per run,
    not per day. The per-prefix rate law (Pareto multipliers, hosting
    factor and cap), the reset replay time, convergence transients (MRAI
    spacing, settle delay) and the per-event recompute bound are fixed
    calibration constants of the implementation. *)

val default_config : config
(** A 30-day month matching the paper's measurement scale. *)

val short_config : config
(** A 2-day run for tests and examples. *)

type world = {
  graph : As_graph.t;
  indexed : As_graph.Indexed.t;
  addressing : Addressing.t;
  collectors : Collector.t list;
}

val make_world : As_graph.t -> Addressing.t -> Collector.t list -> world

type initial = Route.t Prefix.Map.t Update.Session_map.t
(** Per session: the table at time 0 — the paper's "first path used at the
    beginning of the month" baseline. *)

type stats = {
  churn_events : int;
  resets_injected : (Update.session_id * float * float) list;
      (** ground truth for evaluating {!Session_reset} detection *)
  updates_emitted : int;
  announces : int;
  withdraws : int;
  full_recomputations : int;
      (** full propagation runs: one delta cold start per origin and
          any bails, or every request when [delta] is off. Delta
          steps are deliberately {e not} counted here — AB tables
          comparing engines would otherwise lie.
          [full_recomputations + delta_steps] = outcome requests *)
  delta_steps : int;
      (** outcome requests served by incremental {!Propagate.Delta}
          repair instead of a full recompute *)
  delta_stop_early : int;
      (** link repairs inside those steps proven no-ops in O(1) (the
          flapped link carried no selected route) *)
  cache_hits : int;
      (** benchmark compatibility only: always [0] (no route cache) *)
  cache_misses : int;
      (** benchmark compatibility only: the number of outcome requests,
          [full_recomputations + delta_steps] *)
  cache_evictions : int;
      (** benchmark compatibility only: always [0] *)
  post_horizon_dropped : int;
      (** updates scheduled past [duration] and never emitted — convergence
          delays and reset replays near the end of the run overshoot the
          horizon; the stream itself stays within [\[0, duration\]] *)
  final_failed : int;
      (** links still failed once every revert has been applied — 0
          unless a perturbation genuinely outlives all scheduled restores *)
}

val run :
  rng:Rng.t -> ?trace_rng:Rng.t -> ?on_initial:(initial -> unit) ->
  config -> world -> emit:(Update.t -> unit) -> initial * stats
(** Runs the simulation, feeding every UPDATE to [emit] in time order.
    [on_initial] is called with the time-0 tables {e before} any update is
    emitted, so consumers can set their baselines. Deterministic given
    [rng] and inputs. [trace_rng] seeds the trace-churn generator when
    [session_churn] is set (the measurement feed passes the scenario's
    "trace-churn" stream; defaults to a split of [rng]) —
    a dedicated stream, so enabling trace churn never re-times the
    Poisson processes. *)

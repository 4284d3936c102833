(** Differential oracles: configuration pairs that must not change
    results.

    The domain pool is a pure execution layer, and the session-reset
    filter is inert on a stream without resets. Each oracle runs a
    seeded scenario under both halves of such a pair, renders the
    experiment output (F3L, F3R, M1, or a raw per-cell kernel) and diffs
    the two renderings byte-for-byte, reporting the first divergent
    line.

    | pair                   | halves                             | outputs        |
    |------------------------|------------------------------------|----------------|
    | jobs-1-vs-2            | pool [jobs] 1 vs 2                 | F3L, F3R, M1   |
    | chunk-1-vs-64          | [Pool.map ~chunk] 1 vs 64          | per-cell F3R   |
    | filter-on-reset-free   | filter on vs off, 0 resets/session | F3L, F3R       | *)

type outcome = {
  seed : int;
  pair : string;        (** e.g. ["jobs-1-vs-2"] *)
  experiment : string;  (** e.g. ["F3R"] *)
  ok : bool;
  detail : string option;  (** first divergent line, when [not ok] *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val all_ok : outcome list -> bool

val default_dynamics : Dynamics.config
(** [Dynamics.short_config] shortened to 12 simulated hours. *)

val run :
  ?dynamics:Dynamics.config -> ?seeds:int list -> Scenario.size ->
  outcome list
(** Run every pair on every seed (default seeds [1; 2]) and return one
    outcome per (seed, pair, experiment). Deterministic. *)

val delta :
  ?dynamics:Dynamics.config -> ?seeds:int list -> Scenario.size ->
  outcome list
(** The delta-vs-full propagation oracle (default seeds [1..5]): per
    seed, runs the same measurement with [Dynamics.delta] off (every
    request is a plain {!Propagate.compute}) and on (incremental
    repair), and demands byte-identical collector update streams and
    final (session, prefix) tables; then checks worker count does not
    leak into delta-backed F3L output (jobs 1 vs 4), and finally that
    the delta run actually took delta steps — without which the
    identities would be vacuous. A divergence is a repair-engine bug by
    construction: Gao-Rexford safety makes the stable assignment unique,
    so any correct repair must land on the full-compute fixed point. *)

val static :
  ?dynamics:Dynamics.config -> ?seeds:int list -> Scenario.size ->
  outcome list
(** The dynamic-vs-static soundness oracle (default seeds [1..5]): per
    seed, audits that (1) every update a full simulated measurement
    records stays inside the [Qs_analysis.Static_surface] exposure bound
    of its (session peer, true origin) pair, and (2) every client a
    seeded same-prefix hijack, more-specific hijack, or interception
    wins against ([Hijack.wins] / [Interception.wins]) lies inside the
    corresponding static feasible set. All four experiments report under
    the pair name ["dynamic-vs-static"]; a divergence is a propagation,
    attack, or closure bug by construction. *)

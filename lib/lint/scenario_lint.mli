(** Static analysis of a fully-built scenario: determinism of the build
    itself and liveness of the measurement apparatus.

    Every table in the paper reproduction is keyed by a seed; if two
    builds from the same seed diverge, no reported number is
    reproducible. And a collector session peering with an AS that does
    not exist (or from an address the peer does not own) silently
    records nothing. *)

val nondeterministic_build : Diag.rule
(** [QS301]: two [Scenario.build] calls with the same seed and size
    produced different fingerprints. *)

val dead_collector_peer : Diag.rule
(** [QS302]: a collector session's peer AS is not present in the
    topology. *)

val collector_peer_ip : Diag.rule
(** [QS303]: a collector session's peer IP is not inside address space
    owned by the peer AS (warning: the collector builder falls back to a
    documentation address when the peer owns no prefix). *)

val parallel_fingerprint_divergence : Diag.rule
(** [QS305]: {!Scenario.fingerprint} computed over a [jobs = 1] pool and a
    [jobs = 2] pool disagreed — the executor's determinism guarantee is
    broken for this scenario. *)

val rules : Diag.rule list

val check_collectors :
  As_graph.t -> Addressing.t -> Collector.t list -> Diag.t list

val check_determinism : Scenario.t -> Diag.t list
(** Rebuilds the scenario from its own seed and size and compares
    {!Scenario.fingerprint}s. Costs one extra scenario build. *)

val check_parallel_fingerprint :
  ?fingerprint:(exec:Pool.t -> string) -> Scenario.t -> Diag.t list
(** The [QS305] check: computes the scenario fingerprint over a fresh
    [jobs = 1] pool and a fresh [jobs = 2] pool and compares. [fingerprint]
    overrides the digest function (tests use it to force a firing); the
    default is [Scenario.fingerprint ~exec] of the given scenario. *)

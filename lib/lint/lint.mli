(** The diagnostics engine's front door: the rule registry and the
    whole-scenario driver behind [quicksand lint].

    Analyzers verify the routing world {e statically} — no traffic is
    simulated. The driver recomputes the honest per-prefix BGP tables
    (sampled if the plan is huge) and runs every registered analyzer over
    topology, RIBs, addressing/RPKI material and the scenario build
    itself. See DESIGN.md "Static checks" for the rule catalogue and how
    to add an analyzer. *)

val all_rules : Diag.rule list
(** Every registered rule, in code order. *)

val find_rule : string -> Diag.rule option
(** Look a rule up by code ("QS001"), slug ("valley-violation") or
    combined id ("QS001-valley-violation"), case-insensitively. *)

val select : rules:string list -> Diag.t list -> Diag.t list
(** Keep only diagnostics of the selected rules.
    @raise Invalid_argument if a selector matches no registered rule. *)

val run :
  ?rules:string list -> ?max_prefixes:int -> ?determinism:bool ->
  ?exec:Pool.t -> Scenario.t -> Diag.t list
(** Run every analyzer over a scenario and return the findings,
    filtered to [rules] when given. [max_prefixes] (default 512) bounds
    how many announced prefixes get their routing table recomputed and
    checked — prefixes are sampled evenly and deterministically beyond
    that. [determinism] (default [true]) enables the rebuild-and-compare
    check (one extra scenario build) and the [QS305] jobs=1-vs-jobs=2
    fingerprint comparison. The per-prefix table recomputations run as
    tasks on [exec] (default {!Pool.default}), each domain using its own
    scratch workspace; sampled-prefix order is preserved, so the findings
    are identical at any worker count.
    @raise Invalid_argument if [max_prefixes] is not positive. *)

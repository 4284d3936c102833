(** The paper's §4 measurement pipeline, end to end: simulate a month of
    BGP over the scenario, filter session-reset artifacts, and accumulate
    per-(session, prefix) statistics streamingly:

    - {b path changes}: transitions between announcements whose AS {e set}
      differs (the paper's definition of a path change);
    - {b AS residency}: how long each AS spent on the observed path, so
      the 5-minute exposure rule of Figure 3 (right) can be applied;
    - visibility (which sessions learned which prefixes — the T1 dataset
      numbers).

    The dynamics stream can be spiked with extra (attack) updates, which
    are merged in time order — that is how the §5 monitoring experiments
    inject hijacks into an otherwise normal month. *)

type key = Cell_template.key = { session : Update.session_id; prefix : Prefix.t }

type cell = Cell_template.cell = {
  key : key;
  baseline : Asn.Set.t option;   (** AS set of the initial route *)
  updates : int;                 (** updates seen post-filter — announcements
                                     {e and} withdrawals *)
  path_changes : int;
  residency : (Asn.t * float) list;
      (** total seconds each AS spent on this (session, prefix) path *)
  contiguous : (Asn.t * float) list;
      (** per AS, the longest single contiguous interval it spent on the
          path (always <= its cumulative residency) *)
  final_set : Asn.Set.t option;
}
(** Cells exist only for keys that carried routing state: a baseline route
    at time 0 or at least one announcement. A key that only ever saw
    withdrawals is not materialized. A cell with [updates = 0] holds its
    baseline and nothing else: [residency] and [contiguous] name only
    baseline ASes, so {!extra_ases} of it is empty — the analyses skip
    the scan for such cells. *)

module Key_table = Cell_template.Key_table
(** Hash tables over measurement keys — shared with the [Qs_serve]
    sliding window so both sides key state identically. *)

val iter_baselines : Dynamics.initial -> (key -> Asn.Set.t -> unit) -> unit
(** Every time-0 route as its key and baseline AS set, in the order
    {!run} numbers keys ({!Cell_template.iter_baselines}). *)

(** Incremental per-key accumulator — the unit the batch pipeline below
    and the [Qs_serve] sliding window both build on. A key's statistics
    depend only on that key's update subsequence, so any consumer that
    preserves per-key time order reproduces the batch numbers exactly
    (path changes, residency, longest contiguous runs are all computed by
    the same code).

    The current path is held as its ascending, distinct ASNs in one
    array, and the per-AS statistics in flat parallel arrays, one slot
    per AS in first-seen order. An accumulator that holds only its
    baseline — nearly every cell at paper scale — keeps neither until its
    first update, and seals in O(1) to every baseline AS at the horizon.
    Every read, the seal and the first update behave exactly as with the
    arrays. *)
module Acc : sig
  type t

  type event = [ `First | `Same | `Changed | `Withdrawn ]
  (** What one update did to the key: first-ever announcement, re-announce
      with an identical AS set, a path change, or a withdrawal. *)

  val create : unit -> t

  val set_baseline : t -> Asn.Set.t -> unit
  (** Register the time-0 table route: sets the baseline AS set, the
      current path, and starts contiguous runs at t = 0. Call at most
      once, on a new accumulator, before any update flows: an
      accumulator that then sees no update seals to its baseline alone,
      which is what makes {!cell}'s zero-update cells hold no extra AS. *)

  val consume : t -> Update.t -> event
  (** Feed one update (per-key time order). Counts it, credits residency
      up to the update's time, and maintains contiguous-run state. *)

  val seal : t -> float -> unit
  (** Close the accumulator at a horizon: credit residency up to it and
      close every open run. Call exactly once, then read {!cell}. *)

  val cell : key -> t -> cell option
  (** Materialize; [None] for a withdraw-only key (no baseline and no
      announcement — nothing a collector could measure). *)

  val baseline : t -> Asn.Set.t option

  val routed : t -> bool
  (** Whether the key holds a route: its baseline or an announcement not
      withdrawn since. *)

  val path : t -> Asn.t array
  (** The current path's ASes, ascending and distinct ([[||]] when not
      {!routed}). [consume] replaces the array on a path change and never
      mutates it, so an array read before an update is still the old path
      after it; do not mutate it either. On a fresh accumulator this
      converts the baseline, as its first update would. *)

  val updates : t -> int
  val announces : t -> int
  val path_changes : t -> int

  val residency : t -> (Asn.t * float) list
  (** Per-AS cumulative residency credited so far (unsealed: excludes the
      open span since the last update), in unspecified order. *)

  val contiguous : t -> (Asn.t * float) list
  (** Per-AS longest {e completed} run so far (unsealed), in unspecified
      order. A windowed consumer merges these across a key's lives with
      per-AS [max] — runs never span a withdrawal, so the global longest
      run is the max over lives. *)

  val run_start : t -> Asn.t -> float option
  (** Start time of the AS's current on-path run, if it is on the path. *)

  val best_run : t -> Asn.t -> float
  (** Longest {e completed} contiguous run for the AS (0 if none). *)

  val longest_run : t -> at:float -> Asn.t -> float
  (** Longest contiguous run counting the still-open one as if it closed
      at [at] — what a threshold query at time [at] must compare against. *)
end

type t = {
  scenario : Scenario.t;
  duration : float;
  initial : Dynamics.initial;
  cells : cell list;
  dyn_stats : Dynamics.stats;
  filter_stats : Session_reset.stats option;
  visibility : int Prefix.Table.t;
      (** per prefix: number of sessions that ever saw it *)
  n_sessions : int;
}

val feed :
  ?dynamics:Dynamics.config ->
  ?no_filter:bool ->
  ?extra_updates:Update.t list ->
  on_initial:(Dynamics.initial -> unit) ->
  Scenario.t -> (Update.t -> unit) ->
  Dynamics.initial * Dynamics.stats * Session_reset.stats option
(** The measurement feed, the one stream that {!run} and [Qs_serve]'s
    replay both consume. Simulates [dynamics] on the scenario's
    "measurement" RNG stream (trace churn on its "trace-churn" stream),
    hands the time-0 tables to [on_initial] before any update flows,
    drops session-reset artifacts (unless [no_filter], the ablation) and
    merges the time-sorted [extra_updates] in. The consumer sees every
    post-filter update in global time order: the dynamics stream is
    time-ordered and each [Session_reset.push] releases what its time
    makes due. Returns the time-0 tables,
    the dynamics stats and the filter stats ([None] when unfiltered). *)

val run :
  ?dynamics:Dynamics.config ->
  ?no_filter:bool ->
  ?extra_updates:Update.t list ->
  ?observe:(Update.t -> unit) ->
  Scenario.t -> t
(** Runs the full pipeline: accumulates {!feed} per key and seals every
    cell at the horizon (deterministic given the scenario). [observe]
    sees every update {!Acc.consume} does, in the same order — attach
    monitors here.

    Keys are read from the scenario's time-0 cell template's table
    ({!Cell_template.keys}), so cells are listed in the order of a table
    filled key by key: time-0 keys in {!iter_baselines} order, then each
    later key as an update first names it. The run reads the template's
    table and never writes it; only when an update names a key outside
    time 0 does it copy the table ({!Key_table.copy} keeps each bucket's
    order) and add that key, and every later one, to the copy. An {!Acc}
    exists only for a key an update touched; every other time-0 key
    contributes the template's shared sealed cell for the horizon
    ([duration]), and visibility starts from a copy of the template's
    counts. The first [delta] run on a world builds the template and
    publishes it ({!Cell_template.for_run}); later [delta] runs, whose
    time-0 tables are the world's memo and so physically the template's
    source, reuse it. A [delta = false] run builds a private template
    from its own tables. The cells, their order and every count are
    those of one accumulator per key, whichever way a run is seeded. *)

val pp_dynamics_summary : Format.formatter -> t -> unit
(** Three-line summary of the run's {!Dynamics.stats}: update counts,
    full recomputations and delta steps, and the horizon accounting
    (post-horizon drops, links still failed at the end). Printed by
    [quicksand path-changes] and the benchmarks. *)

val is_tor : t -> Prefix.t -> bool

val changes_of : cell -> int
val extra_ases : ?threshold:float -> cell -> Asn.Set.t
(** ASes whose longest {e contiguous} on-path interval reaches the
    threshold (default 300 s) and that are not in the baseline AS set —
    the paper's "seen for more than five minutes" rule demands a sustained
    appearance, so disjoint short stints do not accumulate. Empty if the
    cell has no baseline (prefix never seen at time 0 on this session). *)

val visibility_fraction : t -> Prefix.t -> float
(** Fraction of sessions on which the prefix was ever visible. *)

(** Streaming conformance checker for the measurement pipeline.

    Every §4 statistic is a function of a filtered, time-ordered update
    stream; this module states the stream and accumulator invariants as
    executable checks:

    - {b horizon containment}: every update's time lies in [\[0, duration\]];
    - {b per-session monotonicity}: times never decrease on one session;
    - {b global monotonicity}: the merged stream never goes back in time
      — the raw dynamics stream, the reset filter's output and
      {!Measurement.feed} are all globally ordered;
    - {b no withdraw-before-announce}: a withdraw only makes sense for a
      key that had a baseline route or a prior announce;
    - {b residency conservation}: per cell and AS, cumulative residency
      stays within [\[0, duration\]] and the longest contiguous run never
      exceeds the cumulative total;
    - {b filter accounting}: [pushed = passed + dropped + buffered] for
      the session-reset filter, with an empty buffer after flush.

    Install it on a pipeline via [Measurement.run ?observe] (or use {!run}
    which does the plumbing), or wrap any [Update.t -> unit] consumer with
    {!wrap}. *)

type violation = { invariant : string; message : string }

val pp_violation : Format.formatter -> violation -> unit

type t
(** Mutable checker state for one stream. *)

val create : ?duration:float -> ?require_global_order:bool -> unit -> t
(** [duration] bounds the horizon check (default [infinity], i.e. only
    negative or NaN times violate). [require_global_order] (default
    [true]) demands global time monotonicity; [false] checks only
    per-session order. *)

val observe : t -> Update.t -> unit
(** Feed one update; pass this as [Measurement.run ~observe]. *)

val wrap : t -> (Update.t -> unit) -> Update.t -> unit
(** [wrap t k] observes each update, then forwards it to [k]. *)

val observed : t -> int
(** Updates seen so far. *)

val finalize : ?initial:Dynamics.initial -> t -> violation list
(** Stream verdict, in detection order. Withdraw-first keys are only
    violations if they also lack a time-0 baseline route, so pass the
    pipeline's [initial] tables when available; without [initial] every
    withdraw-first key is reported. At most 100 violations are kept
    verbatim; the rest are summarized in a final ["truncated"] entry. *)

val check_measurement : Measurement.t -> violation list
(** Post-hoc invariants over a finished measurement: phantom cells,
    path-changes vs updates accounting, residency conservation
    (cumulative and contiguous), visibility bounds, filter accounting. *)

val run :
  ?dynamics:Dynamics.config ->
  ?no_filter:bool ->
  ?extra_updates:Update.t list ->
  Scenario.t -> Measurement.t * violation list * int
(** Run the full measurement pipeline with the checker installed as its
    [observe] hook, then {!finalize} against the pipeline's own time-0
    tables and append {!check_measurement}. An empty list means the run
    was conformant. The [int] is the number of updates {!observed}. *)

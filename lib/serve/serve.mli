(** The streaming exposure-monitoring service behind [quicksand serve].

    A long-running loop ingests a continuous BGP update feed, keeps
    rolling-window path-change / extra-AS state for every watched
    (session, prefix) key in bounded memory ({!Window}), and publishes
    events — per-key exposure deltas, C1c hijack/interception alerts,
    conformance violations — to pluggable {!Sink}s.

    The service is a thin assembly over the subsystem's parts: updates
    enter through {!Ingest} (watermarked reorder buffer with explicit
    backpressure), released updates drive {!Window} and the {!Alert}
    detector registry. When a subscribed sink reads JSON lines, events
    are rendered off the hot path in submission order over a {!Pool.t} —
    so the emitted stream is byte-identical at any worker count; when
    none does, nothing is rendered, and when no sink reads events at
    all, they are only counted.

    {b Replay equivalence.} [replay] feeds a simulated measurement
    period through the live service — {!Measurement.feed}, the stream
    {!Measurement.run} consumes;
    [diff_against_batch] then certifies that the streaming arm produced
    {e exactly} the batch arm's cells (bit-equal floats included) and
    C1c alert sequence. See DESIGN.md §14 for the proof sketch. *)

module Config : sig
  type t = {
    window : float;       (** sliding-window span, seconds *)
    bucket : float;       (** ring-buffer bucket width, seconds *)
    threshold : float;    (** extra-AS residency threshold, seconds *)
    slack : float;        (** out-of-order tolerance, seconds *)
    capacity : int;       (** ingest queue bound *)
    chunk : int;          (** event-flush / MRT-decode batch size *)
    learning_period : float;  (** C1c detector warm-up, seconds *)
    monitored : (Prefix.t * Prefix.t) list;
        (** (client prefix, guard prefix) pairs to watch *)
  }

  val default : t
  (** 1 h window over 60 s buckets, 300 s threshold, 120 s slack,
      65536-deep queue, 512-event chunks, 6 h learning period. *)

  val view : t -> Serve_lint.config_view
  (** Dependency-free projection for the QS307 lint rule. *)

  val window_config : t -> Window.config
  val ingest_config : t -> Ingest.config
end

type t
(** A live service instance. Not thread-safe: one feeder loop owns it;
    parallelism lives inside the {!Pool.t} it renders events on. *)

val create :
  ?config:Config.t -> ?duration:float -> ?watched:(Prefix.t -> bool) ->
  ?sinks:Sink.t list -> exec:Pool.t -> unit -> t
(** Build a service. [watched] selects the prefixes whose keys emit
    path-change / extra-AS events (default: all); [duration] bounds the
    conformance observer's timeline (default unbounded). The C1c
    detector is pre-registered with the config's learning period.
    @raise Invalid_argument if the config fails {!Serve_lint.check}. *)

val offer : t -> Update.t -> unit
(** Feed one update: push through the ingest buffer, then process every
    update the watermark releases. Drops are counted, never silent. *)

val drain : ?initial:Route.t Prefix.Map.t Update.Session_map.t ->
  t -> horizon:float -> Conformance.violation list
(** End of feed: flush the reorder buffer, advance the window to
    [horizon] (sealing every live accumulator), finalize conformance
    against the optional [initial] RIB snapshot, flush pending events
    and close all sinks. Single-shot.
    @raise Invalid_argument on a second call. *)

val alerts : t -> Alert.t list
(** Alerts raised so far, oldest first. *)

val window : t -> Window.t
val ingest : t -> Ingest.t
val events_emitted : t -> int

(** {1 Replay: the simulated-feed driver} *)

type replay_result = {
  r_config : Config.t;
  r_duration : float;
  r_cells : Measurement.cell list;   (** canonically sorted *)
  r_alerts : Alert.t list;           (** oldest first *)
  r_events : int;
  r_violations : Conformance.violation list;
  r_ingest : Ingest.stats;
  r_window : Window.stats;
  r_dyn : Dynamics.stats;
  r_filter : Session_reset.stats option;
}

val replay :
  ?dynamics:Dynamics.config -> ?no_filter:bool ->
  ?extra_updates:Update.t list -> ?sinks:Sink.t list ->
  ?config:Config.t -> exec:Pool.t -> Scenario.t -> replay_result
(** Run a whole simulated measurement period through the live service:
    {!create}, then {!Measurement.feed} with the time-0 tables going to
    the window's baselines and every update to {!offer}, then {!drain}.
    Batch consumes the same feed, so the update sequence entering the
    service is the batch one and {!diff_against_batch} can demand
    bit-exact agreement; the feed is globally time-ordered, so ingest's
    bounded slack never drops a straggler. *)

val batch_alerts :
  ?dynamics:Dynamics.config -> ?no_filter:bool ->
  ?extra_updates:Update.t list -> learning_period:float -> Scenario.t ->
  Measurement.t * Alert.t list
(** The batch reference arm: run {!Measurement.run} over the same feed
    and hand its [observe] stream to one {!Detection} monitor. The feed
    is already in global time order, the order the service's watermark
    releases it in, so nothing is re-sorted. Returns the batch
    measurement and its alert sequence. *)

val diff_against_batch :
  replay_result -> Measurement.t -> Alert.t list -> string list
(** Certify replay equivalence: no ingest loss, no conformance
    violations, alert sequences equal element-wise, and every batch cell
    reproduced field-by-field (floats compared with [Float.equal], i.e.
    bit-for-bit up to NaN) including the derived extra-AS sets. Returns
    human-readable discrepancies; [[]] means the arms agree exactly. *)

val sort_cells : Measurement.cell list -> Measurement.cell list
(** Canonical (collector, peer, prefix) cell order — the order
    [r_cells] uses and renderers should apply before byte-comparing. *)

val pp_replay_summary : Format.formatter -> replay_result -> unit

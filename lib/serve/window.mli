(** The bounded-memory sliding window at the heart of [quicksand serve].

    One {!Measurement.Acc} per live (session, prefix) key, plus three
    O(1)-amortized mechanisms per update:

    - {b ring-buffer bucketing}: per-key path-change counts in
      [window / bucket] time buckets with a rolling sum, so "changes in
      the last window" is a field read (a key's ring is allocated on its
      first path change);
    - {b threshold timers}: when a non-baseline AS enters a watched path,
      a timer is armed at [entry + threshold]; when it pops, the key's
      longest contiguous run decides emission — this reproduces the batch
      {!Measurement.extra_ases} set {e exactly} (see the proof sketch in
      DESIGN.md §14) while doing O(1) work per update;
    - {b timed eviction}: a withdrawal arms an expiry at
      [withdrawal + window]; a key still route-less and untouched when it
      pops is evicted — its ring and live-set slot are reclaimed and its
      sealed accumulator parks as a {e ghost}, so a later update for the
      key resumes bit-exactly where batch accounting would be (residency
      credit on a withdrawn accumulator is a no-op, so nothing is lost
      across the gap).

    Updates must arrive in non-decreasing time order — the ingest stage's
    watermark reordering provides that. Everything here is sequential and
    deterministic: same stream in, same events and cells out, at any pool
    width. *)

type config = {
  window : float;     (** sliding-window length, seconds *)
  bucket : float;     (** ring-buffer bucket width; must divide [window]
                          into at most [Serve_lint.max_buckets] buckets *)
  threshold : float;  (** extra-AS contiguous-run threshold, in
                          [(0, window]] — the bound that guarantees every
                          satisfiable timer fires before its key can be
                          evicted *)
}

val default_config : config
(** 1 h window, 60 s buckets, the paper's 300 s threshold. *)

type t

type stats = {
  live : int;
  ghosts : int;
  evictions : int;
  resurrections : int;
  scheduled : int;
  fired : int;
}

val create : ?config:config -> watched:(Prefix.t -> bool) -> unit -> t
(** [watched] selects the prefixes whose keys emit path-change and
    extra-AS events (monitored pairs and Tor prefixes); unwatched keys
    are still accumulated — session medians need every prefix — but stay
    silent. @raise Invalid_argument on a config QS307 rejects
    ({!Serve_lint.window_problem}, {!Serve_lint.threshold_problem}). *)

val config : t -> config

val set_baseline : t -> Measurement.key -> Asn.Set.t -> unit
(** Register a time-0 table route before any update flows (mirrors
    [Measurement]'s baseline seeding). *)

val apply : t -> Update.t -> Event.t list
(** Feed one update (non-decreasing time). Returned events, in order:
    timers and evictions that came due strictly as of the update's time,
    then the update's own path-change event (if any). *)

val advance : t -> float -> Event.t list
(** Move the watermark forward without an update (idle feed): fires due
    timers and evictions. A no-op if the time is not ahead of the
    watermark. *)

val drain : t -> horizon:float -> Event.t list
(** End of stream: advance to [horizon], firing due timers; discard
    timers past it (their runs cannot reach the threshold inside the
    horizon — exactly the batch rule); seal every live accumulator. Call
    once; {!cells} is meaningful afterwards. *)

val cells : t -> Measurement.cell list
(** After {!drain}: one cell per key that ever carried routing state
    (live or ghost), in canonical (collector, peer, prefix) order. On
    the same (globally ordered) stream these equal the batch
    [Measurement.run] cells field-for-field, bit-exact floats included. *)

val compare_key : Measurement.key -> Measurement.key -> int
(** The canonical (collector, peer, prefix) cell order {!cells} uses —
    exported so renderers can sort batch cells the same way before
    byte-comparing output. *)

val in_window : t -> Measurement.key -> int
(** Path changes inside the window as of the current watermark (0 for
    unknown or evicted keys). *)

val watermark : t -> float

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

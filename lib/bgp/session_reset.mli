(** Detection and removal of BGP session-reset artifacts.

    When an eBGP session to a collector resets, the peer re-sends its whole
    table. Those updates say nothing about routing changes and massively
    inflate per-prefix update counts; the paper removes them ("we removed
    any artificial updates caused by BGP session resets [31]", following
    Zhang et al., {i Identifying BGP routing table transfer}).

    This module implements the detection heuristic as an online filter:
    per session it watches for bursts that announce an abnormally large
    share of the session's known table within a short window, drops the
    whole burst (and keeps dropping while the burst continues), and passes
    everything else downstream. Updates must be pushed in globally
    non-decreasing (finite) time order across all sessions; each push
    advances the filter's clock, so downstream emission is globally
    time-ordered — ties broken by session, then push order — and delayed
    by at most [window] seconds of input time (call {!flush} at end of
    stream). *)

type config = {
  window : float;        (** burst-detection window, seconds (default 60) *)
  min_prefixes : int;    (** never classify fewer distinct prefixes as a
                             transfer (default 100) *)
  table_fraction : float;(** burst must cover at least this fraction of the
                             session's known table (default 0.5) *)
  quiet_gap : float;     (** a silence this long ends a transfer (default 30) *)
}

val default_config : config

type stats = {
  pushed : int;          (** total updates ever pushed into the filter *)
  passed : int;          (** updates emitted downstream *)
  dropped : int;         (** updates classified as table-transfer artifacts *)
  buffered : int;        (** updates still held in session buffers; zero
                             after {!flush}. The accounting identity
                             [pushed = passed + dropped + buffered] holds at
                             every point of the stream. *)
  bursts : (Update.session_id * float * float) list;
  (** detected transfer intervals, latest first *)
}

type t

val create : ?config:config -> emit:(Update.t -> unit) -> unit -> t

val preload_table : t -> Update.session_id -> int -> unit
(** Tell the filter how many prefixes the session's table holds at stream
    start (from the initial RIB), so early resets are sized correctly. *)

val push : t -> Update.t -> unit
(** Feeds one update: first emits, across all sessions, every buffered
    update older than [u.time - window] (none of them can join a burst
    any more), then classifies [u]. *)

val advance : t -> float -> unit
(** [advance t now] emits what a push at time [now] would, without
    pushing. Only needed to move the clock of an idle stream; [now] must
    not precede the last pushed time. *)

val flush : t -> unit
(** Emits everything still buffered, across all sessions, in global
    (time, session) order. Call exactly once, at end of stream. *)

val stats : t -> stats

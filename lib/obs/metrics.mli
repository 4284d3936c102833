(** The process-wide metrics registry.

    Monotonic counters, gauges, and fixed-bucket histograms under stable
    dotted names. Every shipped handle is registered once, at module
    initialization of {!Manifest}, which is therefore the schema; handles
    are written on the hot path under two guarantees:

    {b Domain safety.} Counter increments and histogram observations land
    in a per-domain shard (no lock and no lookup: each metric holds a
    domain-local storage key for its shard, so after a domain's first
    write a counter write allocates nothing — the registry keeps one
    shard per (metric, domain) pair, created lazily on a domain's first
    write, mirroring the one-workspace-per-domain contract of
    [Qs_exec]). Shards are merged at read time by {!snapshot}; merging
    sums counts bucket-wise, so it is commutative and conserves every
    observation, whatever the worker count was.

    {b Determinism.} Merged counter values depend only on what the
    program computed, never on scheduling. Timing-derived fields
    (histogram sums, minima, maxima, quantiles) are isolated in dedicated
    fields of {!hist_view} so exports can mask them; with a frozen
    {!Clock} they are exact zeros.

    Registering a name the registry already holds raises
    [Invalid_argument], whatever its kind, so a metric declared twice
    fails at start-up. Names under ["test."] are reserved for test
    suites. *)

type counter
type gauge
type histogram

(** {1 Registration} *)

val counter : ?help:string -> string -> counter
(** [counter name] registers the monotonic counter [name].
    @raise Invalid_argument if [name] is already registered (so do
    {!gauge} and {!histogram}). *)

val gauge : ?help:string -> string -> gauge
(** [gauge name] registers a last-write-wins instantaneous value. *)

val histogram : ?buckets:float array -> ?help:string -> string -> histogram
(** [histogram ~buckets name] registers a fixed-bucket histogram. An
    observation [v] lands in the first bucket whose upper bound is [>= v],
    or in the implicit overflow bucket. [buckets] must be strictly
    increasing and non-empty (default: nine decades from 1e-6 to 100,
    suitable for seconds).
    @raise Invalid_argument on an unsorted or empty bucket array. *)

(** {1 Hot-path writes} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument if [n < 0] — counters are monotonic. *)

val set : gauge -> float -> unit
(** Last write wins. Takes no lock and, after the call, allocates
    nothing: the value is stored unboxed. *)

val observe : histogram -> float -> unit

val set_enabled : bool -> unit
(** [set_enabled false] turns every write into a no-op — the switch the
    bench overhead ablation flips. Reads are unaffected. Default: on. *)

val enabled : unit -> bool

(** {1 Reading} *)

type hist_view = {
  count : int;            (** observations (exact, scheduling-independent) *)
  sum : float;            (** timing-derived when the histogram is one *)
  min : float;            (** 0 when [count = 0] *)
  max : float;            (** 0 when [count = 0] *)
  buckets : (float * int) array;
      (** (upper bound, count) per bucket; the last bound is [infinity] *)
}

type value =
  | Counter_v of int
  | Gauge_v of float option   (** [None] until the first {!set} *)
  | Hist_v of hist_view

type sample = { name : string; help : string; value : value }

val snapshot : unit -> sample list
(** Every registered metric with its shards merged, sorted by name —
    the stable key order of the exports. *)

val value : string -> value option
(** One metric by name, merged. *)

val quantile : hist_view -> float -> float
(** [quantile h q] is the upper bound of the first bucket at which the
    cumulative count reaches [q * count] (the overflow bucket reads as
    the observed maximum), clamped to [\[h.min, h.max\]]: a bucket's
    bound can lie above every observation, and no quantile reads outside
    the observed range. Monotone in [q]; [0.] on an empty histogram, and
    [0.] over observations that are all 0 (a frozen clock's timings).
    @raise Invalid_argument unless [0 <= q <= 1]. *)

val reset_all : unit -> unit
(** Zero every shard and unset every gauge (registrations survive). Test
    and golden-trace plumbing: callers must ensure no concurrent
    writers. *)

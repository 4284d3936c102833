(** Deterministic report rendering for the registry and the tracer.

    The JSON export is the contract the golden-trace test pins: one
    metric per line, keys sorted, counts exact, and every timing-derived
    number confined to the ["timing"] object and the ["buckets"] array of
    a histogram so a masking diff can erase exactly those. *)

val json_escape : string -> string
(** RFC 8259 string escaping, without the surrounding quotes: the
    double quote, the backslash, newline, carriage return and tab get
    their two-character escapes, other control characters [\u00XX];
    every other byte passes through. The one escaper behind every JSON
    document the tools write. *)

val json_string : Format.formatter -> string -> unit
(** [json_escape] in double quotes. *)

val json_float : Format.formatter -> float -> unit
(** A JSON number that reads back as the same float: integers below
    1e15 print bare, others with 17 significant digits; NaN and the
    infinities print [null]. *)

val metrics_json : Format.formatter -> Metrics.sample list -> unit
(** Render a snapshot as a [qs-obs/1] JSON document:
    {v
    { "schema": "qs-obs/1",
      "counters": { "name": n, ... },
      "gauges": { "name": x|null, ... },
      "histograms": {
        "name": { "count": n,
                  "timing": {"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..},
                  "buckets": [[bound, n], ..., ["+inf", n]] }, ... } }
    v} *)

val metrics_json_string : Metrics.sample list -> string

val metrics_text : Format.formatter -> Metrics.sample list -> unit
(** Human-oriented one-metric-per-line rendering for [--metrics]. *)

val trace_json : Format.formatter -> Span.t list -> unit
(** Render drained spans as a JSON array of
    [{"name","path","depth","domain","start_s","dur_s","alloc_bytes"}]. *)

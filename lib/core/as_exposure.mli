(** Experiment F3R — Figure 3 (right): BGP dynamics put extra ASes on the
    paths towards Tor prefixes.

    Baseline: the AS set of the first path of the month on each session.
    Over the month, every AS that appears on the observed path for at
    least 5 minutes (shorter visits are unlikely to allow traffic
    analysis) and is not in the baseline counts as an {e extra} AS. The
    paper reports the CCDF over cases: >= 2 extra ASes in ~50% of cases,
    > 5 in ~8%, tail to ~20. *)

type t = {
  threshold : float;              (** residency threshold, seconds *)
  extras : int list;              (** per (Tor prefix, session) case *)
  ccdf : Ccdf.t;
  frac_at_least_2 : float;
  frac_above_5 : float;
  max_extras : int;
  per_prefix_union : (Prefix.t * int) list;
      (** per Tor prefix: extra ASes across all its sessions *)
}

val compute : ?threshold:float -> ?exec:Pool.t -> Measurement.t -> t
(** Default threshold 300 s (the paper's 5-minute rule). Only cases
    that saw an update are scanned: a cell with no update holds its
    baseline alone (see {!Measurement.cell}), so it has no extra AS. The
    scans run as tasks on [exec] (default {!Pool.default}); accumulation
    stays sequential in cell order, so the result is byte-identical at
    any worker count. *)

val print : Format.formatter -> t -> unit

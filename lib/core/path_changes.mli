(** Experiment F3L — Figure 3 (left): Tor prefixes see more path changes
    than other BGP prefixes.

    For every (Tor prefix, session) pair, the statistic is the number of
    path changes the prefix saw on that session divided by the {e median}
    number of path changes any prefix saw on that session, presented as a
    CCDF. Paper headlines: more than 50% of the pairs have ratio > 1; one
    prefix reached >2000x; 90% of Tor prefixes beat the median on at least
    one session. *)

type t = {
  ratios : float list;            (** one per (Tor prefix, session) pair *)
  ccdf : Ccdf.t;
  frac_above_one : float;
  max_ratio : float;
  frac_tor_beating_median_somewhere : float;
      (** fraction of Tor prefixes with ratio > 1 on >= 1 session *)
  per_session_median : (Update.session_id * float) list;
  busiest : (Prefix.t * Update.session_id * int) option;
      (** the (prefix, session, changes) with the most changes *)
}

val compute : ?exec:Pool.t -> Measurement.t -> t
(** One pass over the cells groups them by session, keeping each
    session's nonzero path-change counts and its Tor cells; a session's
    median counts its zeros and sorts only the nonzero counts, which
    gives the float a sort of every count gives. Per-session statistics
    run as tasks on [exec] (default {!Pool.default}); sessions are
    processed in a canonical sorted order and reduced sequentially, so
    the result — including tie-breaks in [busiest] — is identical at any
    worker count. *)

val print : Format.formatter -> t -> unit

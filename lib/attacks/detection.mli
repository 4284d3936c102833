(** Control-plane hijack/interception detection (§5).

    Consumes a collector update stream and raises alarms on the classic
    signatures: MOAS (a prefix suddenly originated by a new AS), sub-prefix
    announcements covering known prefixes from a foreign origin, and
    origin-adjacency changes (the AS next to the origin changes to a
    never-seen neighbor — how path-poisoned interceptions look from afar).

    Following the paper's §5 stance, the monitor is deliberately aggressive:
    for anonymity systems false positives are much more acceptable than
    false negatives, so everything anomalous after the learning phase is
    flagged and it is the consumer's job (e.g. Tor's relay-selection layer)
    to react by avoiding the relay. *)

type alarm_kind =
  | Moas of { prefix : Prefix.t; old_origins : Asn.Set.t; new_origin : Asn.t }
  | Sub_prefix of { covering : Prefix.t; sub : Prefix.t;
                    covering_origin : Asn.t; sub_origin : Asn.t }
  | Origin_adjacency of { prefix : Prefix.t; origin : Asn.t;
                          old_neighbors : Asn.Set.t; new_neighbor : Asn.t }

type alarm = {
  time : float;
  session : Update.session_id;
  kind : alarm_kind;
}

val pp_alarm : Format.formatter -> alarm -> unit

val alarm_prefix : alarm -> Prefix.t
(** The prefix the alarm is about: the contested prefix of a MOAS or
    origin-adjacency alarm, the more-specific one of a sub-prefix alarm. *)

type t

val create : ?learning_period:float -> unit -> t
(** During the first [learning_period] seconds (default 86400) the monitor
    only learns baselines and raises nothing. *)

val observe : t -> Update.t -> alarm list
(** Feed one update (time-ordered); returns the alarms it triggers.
    An anomaly keeps a per-(prefix, kind) cool-down so one event does not
    raise hundreds of identical alarms across sessions. *)

val suspicious : t -> ?since:float -> Prefix.t -> bool
(** Has this prefix (or a covering one) an alarm at/after [since]
    (default: any time)? This is what relay selection consults. *)

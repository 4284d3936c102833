(** Experiment T1 — the §4 "Methodology and datasets" summary table.

    Paper values: 4586 relays (1918 guards, 891 exits, 442 both); 1251 Tor
    prefixes announced by 650 distinct ASes; relays-per-prefix median 1,
    p75 2, max 33; each Tor prefix received on ~40% of sessions on average
    (max 60%); per-session Tor prefixes learned: median 438 (35%), max
    1242 (99%). *)

type t = {
  n_relays : int;
  n_guards : int;
  n_exits : int;
  n_guard_exits : int;
  n_tor_prefixes : int;
  n_origin_ases : int;
  relays_per_prefix_median : float;
  relays_per_prefix_p75 : float;
  relays_per_prefix_max : int;
  n_sessions : int;
  mean_visibility : float;     (** avg fraction of sessions a Tor prefix is on *)
  max_visibility : float;
  per_session_tor_median : float; (** Tor prefixes learned per session *)
  per_session_tor_max : int;
}

val compute : Measurement.t -> t
(** Uses the measurement's visibility data plus the scenario's consensus
    and Tor-prefix mapping. *)

val print : Format.formatter -> t -> unit
(** The T1 table, paper value vs measured, one row per statistic. *)

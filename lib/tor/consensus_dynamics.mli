(** A living consensus: hourly epochs over a base snapshot.

    The paper's measurement month had a moving relay population — relays
    joining and dying, bandwidth weights drifting, guards rotating — not
    the one frozen snapshot {!Consensus.generate} produces. This module
    derives a sequence of consensus epochs from a base snapshot:

    - {b departures}: each relay independently leaves with probability
      [departure_hazard] per epoch;
    - {b arrivals}: Poisson([arrival_rate]) new relays per epoch, placed
      on the {e same} weighted candidate sites
      ({!Consensus.candidate_sites}) the base consensus used, with fresh
      addresses, heavy-tailed bandwidths and Bernoulli Guard/Exit flags;
    - {b drift}: surviving relays' bandwidth weights move by a log-normal
      factor per epoch (floored at 1).

    Epoch 0 is the base snapshot verbatim; epoch [i] is one round of
    departures → drift → arrivals applied to epoch [i-1], so
    [n(i) = n(i-1) + |joined(i)| − |departed(i)|] holds by construction.
    [Long_term] (M2) and guard maintenance consult {!at_time} per
    simulated day instead of reading the frozen snapshot.

    Deterministic: one serial pass from a single caller-provided rng
    (normally [Scenario.rng_for _ "consensus-epochs"]) draws every epoch
    up front; building an epoch's consensus later draws nothing, so the
    order in which epochs are asked for never changes them. *)

type params = {
  epoch_seconds : float;      (** epoch length (default: one hour) *)
  arrival_rate : float;       (** expected relay arrivals per epoch *)
  departure_hazard : float;   (** per-relay leave probability per epoch *)
  bw_drift_sigma : float;     (** log-normal drift scale per epoch *)
  guard_fraction : float;     (** chance an arrival carries Guard *)
  exit_fraction : float;      (** chance an arrival carries Exit *)
}

val default_params : params
(** Hourly epochs, ~1 arrival/h, ~0.4%/h departure (≈ 10%/day turnover)
    — the [consensus=live-hourly] sweep model. *)

val heavy_params : params
(** 3 arrivals/h, 1.5%/h departure, larger drift — the
    [consensus=live-heavy] sweep model. *)

val check_params : params -> unit
(** @raise Invalid_argument on out-of-range or non-finite fields. *)

type epoch = {
  consensus : Consensus.t;   (** the full roster at this epoch *)
  joined : Relay.t list;     (** arrivals since the previous epoch *)
  departed : Relay.t list;   (** departures since the previous epoch *)
}

type t
(** Each epoch is stored as a diff over one shared roster of every relay
    ever listed: its arrivals, its departures and its roster's
    bandwidths. An epoch's {!Consensus.t} (with its sampling pools) is
    built on the first {!at} or {!at_time} that asks for it and memoised;
    pool tasks on several domains may ask for the same epoch at once, and
    every caller gets one shared value, equal to a serial build. *)

val generate :
  rng:Rng.t -> ?params:params -> gen:Consensus.gen_params -> n_epochs:int ->
  As_graph.t -> Addressing.t -> Consensus.t -> t
(** [generate ~rng ~gen ~n_epochs g addressing base] derives [n_epochs]
    epochs (epoch 0 = [base]). [gen] supplies the bandwidth law and site
    eligibility used for arrivals — pass the params [base] was generated
    with.
    @raise Invalid_argument if [n_epochs <= 0] or params are invalid. *)

val n_epochs : t -> int

val at : t -> int -> epoch
(** Epoch [i], built on the first call for [i] and shared afterwards.
    @raise Invalid_argument if the index is out of range. *)

val epoch_of_time : t -> float -> int
(** The epoch index covering time [t] seconds (clamped to the generated
    range: negative times map to 0, times past the end to the last
    epoch).
    @raise Invalid_argument if [t] is NaN. *)

val at_time : t -> float -> Consensus.t
(** [at (epoch_of_time t time)]'s consensus. *)

val to_string : t -> string
(** Canonical per-epoch rendering — a header line per epoch
    ([epoch i valid-after .. relays .. joined .. departed ..]) followed
    by [+]/[-] relay lines for arrivals/departures (a departure carries
    its bandwidth at departure). Reads only the stored diffs and builds no
    epoch. The byte-stability witness of the golden test. *)

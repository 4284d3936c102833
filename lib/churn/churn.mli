(** Trace-shaped session churn generation.

    Per-entity alternating-renewal processes with heavy-tailed session
    and outage laws, after the overnet availability traces of Bhagwan et
    al. (NSDI'03): every entity starts Up at time 0, stays up for a
    duration drawn from {!config.up_law}, goes Down for a duration drawn
    from {!config.down_law}, and repeats. The merged event stream is
    what {!Qs_bgp.Dynamics} consumes when a scenario selects a
    [trace-pareto] or [trace-lognormal] churn model.

    {b Determinism.} Entity [i] draws from sibling stream [i] of
    {!Qs_net.Rng.split_n}, so the generated stream is a pure function of
    (rng seed, config, entities, duration) — independent of worker count
    or consumption order. [quicksand check --suite churn] enforces
    byte-identity across [--jobs] and reruns, plus the distribution-shape
    laws below. *)

type law =
  | Pareto of { alpha : float; xmin : float }
      (** Survival [ (xmin/x)^alpha ] for [x >= xmin]. Mean
          [alpha*xmin/(alpha-1)] when [alpha > 1], infinite otherwise;
          median [xmin * 2^(1/alpha)]. *)
  | Log_normal of { mu : float; sigma : float }
      (** [exp (Normal (mu, sigma))]. Mean [exp (mu + sigma^2/2)];
          median [exp mu]. *)

val check_law : law -> unit
(** @raise Invalid_argument on non-positive [alpha], [xmin] or [sigma]. *)

val law_to_string : law -> string
(** Canonical rendering, e.g. ["pareto(alpha=1.5,xmin=1800)"]. *)

val mean : law -> float
(** Closed-form mean; [infinity] for a Pareto with [alpha <= 1]. *)

val median : law -> float
(** Closed-form median. *)

val cdf : law -> float -> float
(** Closed-form CDF (log-normal via an Abramowitz–Stegun [erf]
    approximation, absolute error < 1.5e-7). *)

val sample : Rng.t -> law -> float
(** One duration draw. *)

type config = {
  up_law : law;   (** session (entity reachable) duration law *)
  down_law : law; (** outage duration law *)
}

val check_config : config -> unit
(** {!check_law} on both laws. *)

val pareto_day : config
(** Heavy-tailed sessions (Pareto alpha 1.5, xmin 30 min — infinite
    variance, like the measured traces) with shorter, lighter-tailed
    outages (alpha 2.5, xmin 2 min). The [churn=trace-pareto] sweep
    model. *)

val lognormal_day : config
(** Log-normal sessions (median 2 h) and outages (median 5 min). The
    [churn=trace-lognormal] sweep model. *)

type action = Up | Down

val action_to_string : action -> string
(** ["U"] / ["D"], the overnet trace encoding. *)

type event = {
  time : float;   (** seconds from scenario start *)
  entity : int;   (** generator-assigned entity index, [0..entities-1] *)
  action : action;
}

val compare_event : event -> event -> int
(** Total order: time, then entity, then [Down] before [Up]. *)

val generate :
  rng:Rng.t -> config -> entities:int -> duration:float -> event list
(** [generate ~rng config ~entities ~duration] returns the merged
    event stream, sorted by {!compare_event}. Invariants (enforced by
    [check --suite churn]): times are non-decreasing; per entity the
    actions strictly alternate starting with [Down]; every [Down] has a
    matching later [Up] — closing [Up]s are emitted even past
    [duration], so a consumer that applies stragglers returns to the
    all-up baseline.
    @raise Invalid_argument if [entities < 0] or [duration <= 0]. *)

val to_string : event list -> string
(** Canonical one-line-per-event rendering (["%.6f %d U|D\n"]) — the
    byte-identity witness of the check suite. *)

val durations : event list -> float list * float list
(** [(up_durations, down_durations)] recovered from a time-sorted
    stream by pairing each entity's consecutive events. Ties the emitted
    stream back to the configured laws in the check suite. *)

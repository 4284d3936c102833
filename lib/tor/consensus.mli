(** The Tor network consensus: the directory document listing every relay.

    {!generate} builds a synthetic consensus over a given topology that
    reproduces the marginals of the paper's July-2014 snapshot (§4
    "Methodology and datasets"): 4586 relays of which 1918 carry the Guard
    flag, 891 the Exit flag and 442 both; relays concentrated in a handful
    of hosting ASes (5 ASes ≈ 20% of guard/exit relays, Figure 2 left);
    heavy-tailed consensus bandwidths. *)

type t = private {
  relays : Relay.t array;
  valid_after : float;
  guard_pool : Relay.t array;
      (** the Guard-flagged relays, in [relays] order *)
  guard_weights : float array;
      (** [guard_pool]'s consensus bandwidths, the weights
          {!Path_selection.pick_guard} draws with *)
  exit_pool : Relay.t array;  (** the Exit-flagged relays, in [relays] order *)
  exit_weights : float array; (** [exit_pool]'s bandwidths *)
}
(** Private so that {!make} is the only constructor: the guard and exit
    pools are derived from [relays] once, when the consensus is built,
    and every draw reads them instead of re-filtering the roster. They
    are eager rather than lazy because a consensus is read by pool tasks
    on several domains. What is on demand is the consensus itself: a
    living consensus ({!Consensus_dynamics}) stores its epochs as diffs
    and builds an epoch's consensus, pools included, only when a caller
    first asks for it. The arrays are shared, never copied on read — do
    not mutate them. *)

val make : valid_after:float -> Relay.t array -> t
(** A consensus listing [relays] (in that order), with its sampling
    pools. *)

type gen_params = {
  n_relays : int;            (** 4586 *)
  n_guards : int;            (** 1918, including the dual-flagged *)
  n_exits : int;             (** 891, including the dual-flagged *)
  n_guard_exits : int;       (** 442 relays flagged Guard+Exit *)
  eligible_stub_fraction : float;
      (** share of non-hosting stub ASes that may host relays at all *)
  stub_weight : float;       (** placement weight of an eligible stub *)
  bandwidth_alpha : float;   (** Pareto shape of consensus weights *)
  bandwidth_min : int;       (** KB/s floor *)
}

val paper_params : gen_params
val small_params : gen_params
(** A ~230-relay consensus for tests, same proportions. *)

type sites = {
  site_ases : (Asn.t * float) array;  (** candidate AS with placement weight *)
  site_weights : float array;         (** the weights alone, for sampling *)
}
(** Where relays may live: hosting ASes with their hosting weight plus a
    sampled eligible subset of plain stubs. *)

val candidate_sites :
  rng:Rng.t -> ?params:gen_params -> As_graph.t -> Addressing.t -> sites
(** The placement distribution {!generate} draws from, exposed so
    {!Consensus_dynamics} places arriving relays on the same sites.
    @raise Invalid_argument if no AS can host relays. *)

val pick_site : rng:Rng.t -> sites -> Asn.t
(** One weighted site draw. *)

val sample_bandwidth : rng:Rng.t -> gen_params -> int
(** One heavy-tailed consensus-weight draw (Pareto, floored at
    [bandwidth_min]). *)

val generate :
  rng:Rng.t -> ?params:gen_params -> As_graph.t -> Addressing.t -> t
(** @raise Invalid_argument if the flag counts are inconsistent
    (e.g. [n_guard_exits > min n_guards n_exits] or more flags than
    relays). *)

val guards : t -> Relay.t list
(** [guard_pool] as a list. *)

val exits : t -> Relay.t list
(** [exit_pool] as a list. *)

val guard_or_exit : t -> Relay.t list
val n_relays : t -> int

val relays_in : t -> Asn.t -> Relay.t list

val to_string : t -> string
(** A consensus-flavoured text serialization ("r <nick> <ip> <asn> <bw>
    <flags>" lines). *)

val of_string : string -> t
(** Parses {!to_string} output. @raise Invalid_argument on malformed
    input. *)

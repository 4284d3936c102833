(** Tor path selection: bandwidth-weighted relay choice, guard sets, and
    circuit construction.

    Follows the deployed algorithm's structure: clients weight relays by
    consensus bandwidth, keep a small fixed set of entry guards (three, in
    the 2014 implementation the paper discusses; rotated on a timescale of
    weeks-to-months), and never put two relays from the same /16 — or the
    same relay twice — in one circuit. *)

type circuit = {
  guard : Relay.t;
  middle : Relay.t;
  exit : Relay.t;
}

val pp_circuit : Format.formatter -> circuit -> unit

val pick_weighted : rng:Rng.t -> Relay.t list -> Relay.t
(** Bandwidth-weighted choice. @raise Invalid_argument on empty list.
    For an unfiltered guard or exit draw use {!pick_guard}/{!pick_exit},
    which read the consensus' prebuilt pools; this is for lists filtered
    per draw, such as {!build_circuit}'s conflict-free candidates. *)

val pick_guard : rng:Rng.t -> Consensus.t -> Relay.t
(** A bandwidth-weighted guard-flagged relay, drawn from the consensus'
    [guard_pool]. Returns the relay {!pick_weighted} would on
    [Consensus.guards consensus] with the same [rng] state, consuming the
    same single draw. @raise Invalid_argument if there is no guard. *)

val pick_exit : rng:Rng.t -> Consensus.t -> Relay.t
(** {!pick_guard} for the exit pool. *)

val pick_guards : rng:Rng.t -> Consensus.t -> n:int -> Relay.t list
(** [n] distinct guard-flagged relays, bandwidth-weighted, no two in the
    same /16. @raise Invalid_argument if the consensus cannot satisfy it. *)

val conflict : Relay.t -> Relay.t -> bool
(** Same relay or same /16 — Tor's circuit-diversity constraint. *)

val refresh_guards :
  rng:Rng.t -> Consensus.t -> Relay.t list -> Relay.t list * int
(** [refresh_guards ~rng consensus guards] reconciles a guard set with a
    newer consensus ({!Consensus_dynamics}): guards still listed keep
    their slot (updated to the new consensus record, so bandwidth drift
    is visible), departed ones are replaced by fresh bandwidth-weighted
    draws respecting {!conflict} against the kept set. Returns the
    refreshed set (kept first, in order) and the number replaced; draws
    from [rng] only when a replacement is needed, so a frozen consensus
    costs nothing. @raise Invalid_argument if the consensus cannot
    satisfy the set size. *)

val build_circuit :
  rng:Rng.t -> Consensus.t -> guards:Relay.t list -> circuit
(** Picks the entry uniformly among [guards] (Tor rotates across its guard
    set), then a bandwidth-weighted exit and middle respecting
    {!conflict}. @raise Invalid_argument if impossible. *)

type client = {
  client_id : int;
  client_asn : Asn.t;
  client_ip : Ipv4.t;
  mutable guard_set : Relay.t list;
  mutable guards_chosen_at : float;
}

val make_client :
  rng:Rng.t -> Consensus.t -> id:int -> asn:Asn.t -> ip:Ipv4.t ->
  ?n_guards:int -> float -> client
(** [make_client ... time] creates a client and picks its guard set
    (default 3 guards) at [time]. *)

val rotate_guards_if_due :
  rng:Rng.t -> Consensus.t -> rotation_period:float -> now:float ->
  client -> bool
(** Re-picks the guard set if [now - guards_chosen_at >= rotation_period];
    returns whether a rotation happened. *)

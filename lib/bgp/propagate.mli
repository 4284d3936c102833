(** Network-wide BGP route computation for one prefix.

    Implements the standard Gao–Rexford model of interdomain routing (the
    "AS-level path simulator of Gao et al." lineage the paper builds on):

    {b Decision process} at every AS, in order: prefer routes learned from
    customers over peers over providers; then shortest AS path; then lowest
    next-hop ASN (a deterministic stand-in for intra-AS tie-breaking).

    {b Export policy}: self-originated and customer-learned routes are
    exported to everyone; peer- and provider-learned routes are exported to
    customers only. The resulting paths are valley-free.

    The computation takes a {e list} of simultaneous announcements for the
    prefix, which is how hijacks are expressed: the legitimate origin plus
    one or more adversarial origins, each AS independently picking whichever
    route its policy prefers. Announcement scoping ([export_to],
    [max_radius]) and path forgery ([fake_suffix]) are honored, including
    BGP loop detection (an AS never accepts a path already containing
    itself).

    Link failures are passed as a {!Link_set.t} built over the same graph;
    failed links carry no routes. *)

type t
(** The routing outcome for one prefix: the best route at every AS. *)

module Workspace : sig
  type t
  (** Preallocated state for {!compute}: the per-AS outcome array (one
      packed route word per AS: class, length, next hop and announcement)
      plus the engine's scratch — a FIFO and a length-sorted seed array
      with its counting-sort buckets. A plain [compute] allocates all of these
      afresh per call; on hot paths that recompute thousands of prefixes
      (the dynamics simulator, lint's per-prefix sampling loop) a reused
      workspace removes that allocation: a compute through a sized
      workspace allocates only the outcome record and the announcement
      metadata (a few hundred bytes), whatever the graph size.

      A workspace grows to fit the largest graph it has served and is
      reset in place on every use.

      {b Aliasing and invalidation.} An outcome computed through a
      workspace {e aliases} the workspace's arrays — it is a view, not a
      copy. The next [compute ~workspace] call on the same workspace
      resets those arrays in place and therefore {b invalidates every
      previous outcome} it produced: reading a retained outcome after the
      next compute observes the new prefix's routes, silently. Use a
      workspace only where each outcome is fully consumed before the next
      compute — never for outcomes that are stored ({!copy} them, or
      use plain [compute]). A regression test
      in [test/test_bgp.ml] pins this clobbering behaviour down.

      {b One workspace per domain.} A workspace is single-threaded
      scratch: two domains computing through the same workspace race on
      the same arrays and corrupt both outcomes. Code that runs inside
      {!Qs_exec.Pool} tasks must allocate its workspace through
      [Pool.per_domain Workspace.create] and fetch it with [Pool.get], so
      each domain reuses its own instance ([Lint.run] is the template).
      Sharing one workspace across domains is never sound, even briefly. *)

  val create : unit -> t
  (** An empty workspace; arrays are sized lazily by the first use. *)
end

val compute :
  As_graph.Indexed.t -> ?workspace:Workspace.t -> ?failed:Link_set.t ->
  ?rov:Rpki.t * Asn.Set.t -> Announcement.t list -> t
(** [compute g ~failed ~rov anns] computes routes for the prefix of [anns].
    [rov = (roa_table, deploying_ases)] enables route-origin validation:
    the listed ASes refuse routes whose claimed origin is RPKI-invalid
    (forged-origin paths still validate — ROV is origin, not path,
    security).
    [workspace] reuses preallocated scratch arrays instead of allocating
    per call; the result then stays valid only until the workspace's next
    compute (see {!Workspace}). The outcome is bit-for-bit identical with
    and without a workspace.
    @raise Invalid_argument if [anns] is empty, the announcements disagree
    on the prefix, an origin is not in the graph or [failed] is from a
    graph of another size; or if a value would overflow its field of the
    packed route word: a graph of more than
    2{^20} - 2 ASes, a claimed path whose length plus the graph size
    exceeds 2{^20} - 1, or more than 2{^19} announcements. *)

val has_route : t -> Asn.t -> bool

val route_at : t -> Asn.t -> Route.t option
(** [route_at t a] is the route as [a] would export it: [a]'s own ASN (or
    its announced path if [a] is an origin) at the head. This is what a
    route collector peering with [a] records. [None] if [a] has no route. *)

val next_hop : t -> Asn.t -> Asn.t option
(** The neighbor [a] forwards traffic to for this prefix; [None] if [a] has
    no route or is itself an origin. *)

(** Id-keyed variants for per-event hot loops: [i] is the AS's index in
    the {e same} [As_graph.Indexed.t] the outcome was computed over
    ([As_graph.Indexed.id_of_asn], cacheable across outcomes). They skip
    the per-call ASN-to-id table lookup, which dominates a loop that
    probes thousands of (prefix, session) pairs per event. *)

val route_at_id : t -> int -> Route.t option

val route_matches_id : t -> int -> Route.t -> bool
(** [route_matches_id t i r] is [route_at_id t i = Some r] without
    building the route: an allocation-free walk of the stored next-hop
    chain against [r]'s path. This is the dynamics simulator's
    per-session unchanged check — the overwhelmingly common case after
    an event. *)

val class_code_at_id : t -> int -> int
(** The raw decision-class code at an id: 3 origin, 2 customer, 1 peer,
    0 provider, -1 unrouted. Codes are ordered by collector-feed
    visibility (a feed that shows peer routes shows everything
    customer-learned and above), so "visible on this feed" is a single
    [>=] against a per-feed threshold — the allocation-free form of
    {!route_class_at} + [Collector.visible] for tight loops. *)

val forwarding_path : t -> Asn.t -> Asn.t list option
(** [forwarding_path t a] is the data-plane AS sequence from [a] to
    wherever its route terminates: [a] first, terminating origin last (with
    no prepending repetitions — this is the actual AS-level forwarding
    walk, not the control-plane path). [None] if no route. *)

val forwarding_set : t -> Asn.t -> Asn.Set.t
(** The ASes of {!forwarding_path} as a set; empty if no route. *)

val route_class_at : t -> Asn.t -> [ `Origin | `Customer | `Peer | `Provider ] option
(** How the AS learned its selected route; drives collector feed
    visibility ({!Collector.visible}). *)

val winning_announcement : t -> Asn.t -> int option
(** Index (into the [compute] announcement list) of the announcement whose
    route [a] selected. This is the hijack-deflection test: if AS [a]
    selects announcement 1 (the attacker's), its traffic is captured. *)

val captured : t -> int -> Asn.t list
(** All ASes whose selected route descends from announcement [i]. *)

val candidates_at : t -> Asn.t -> Route.t list
(** Every route AS [a] {e receives} from its neighbors under export policy
    (its best-per-neighbor alternatives), best first. Used to synthesize
    BGP-convergence path exploration: the transient paths a router walks
    through before settling. Paths are as received (neighbor's exported
    path, not including [a]). *)

val routed_count : t -> int
(** Number of ASes that have a route. *)

val copy : t -> t
(** An outcome that owns its arrays. Computing through a
    {!Workspace} (or a {!Delta.state}) yields a view over reused scratch
    that the next compute invalidates; [copy] snapshots it so it can be
    retained. One O(n) int copy, no recomputation. *)

(** Incremental route repair: apply a configuration change to a retained
    outcome and re-run the Gao–Rexford decision only where it can matter,
    instead of recomputing the world.

    A {!state} holds the current fixed point for one {e origin} as one
    owned route word per AS — the routes never depend on the prefix, so
    one state serves every prefix the origin announces (a prefix swap is
    an O(1) metadata update; this is what lets the dynamics simulator
    keep one state per origin, resident for the whole run). {!update} diffs the requested
    (announcements, failed links) configuration against the last applied
    one and repairs:

    - {b link failure}: if no selected route crosses the link the outcome
      is untouched (O(1) stop-early); otherwise the crossing endpoint
      re-selects locally and the change, if any, ripples outward —
      O(affected), not O(world);
    - {b link restore}: the only new candidates are the two offers across
      the restored edge, so an O(1) check per endpoint decides whether
      anything can move;

    The ripple recomputes a popped node's best response from its
    neighbors' current stored routes (class desc, length asc, lowest
    next-hop ASN — the full engine's total order) and re-enqueues its
    neighbors only when the node's route {e quality} (class, length)
    changed: a swap to an equal-quality route via a different next hop
    leaves every neighbor's candidate through it literally identical, so
    the common multihomed re-homing flap repairs in O(degree) instead of
    cascading through the customer cone. Candidates whose selection
    chain passes through the evaluating node are rejected (they can
    never win the Gao–Rexford order at a consistent state, and skipping
    them keeps the stored next-pointer chains acyclic mid-repair); a
    node that lost its would-be winner only to that rejection
    re-enqueues itself while the wave is still moving, since the
    crossing can untangle without any further push reaching it. An
    empty queue means every node re-evaluated after its inputs last
    changed — a best-response equilibrium.
    - {b prepend change}: decisions are invariant under uniform length
      shifts, so only every word's length field moves.

    Because the Gao–Rexford system is safe (unique stable assignment),
    every repair lands on exactly the words a full {!compute} would
    produce; `quicksand check --suite delta` enforces byte-identical
    update streams and tables against the full engine.

    Delta repair is only attempted for the plain dynamics shape — a
    single announcement with no forged suffix, export scoping, radius cap
    or ROV. Anything else (and every first call) falls back to a full
    rebuild: {!compute}'s engine, writing straight into the state's
    words with the scratch's queues, reported as {!kind}
    [Full_rebuild].

    Outcomes returned by {!update} alias the state's words and are
    invalidated by the state's next update — the same contract as
    {!Workspace}; use {!copy} to retain one. A [scratch] is single-domain
    scratch like a workspace and may be shared across many states. *)
module Delta : sig
  type state
  (** One origin's retained fixed point (one route word per AS) plus the
      configuration it is the fixed point of. *)

  type scratch
  (** Reusable repair scratch (wave queue, epoch marks, a rebuild
      workspace); shareable across all states driven from one domain. *)

  val create_scratch : unit -> scratch

  val create : As_graph.Indexed.t -> state
  (** A cold state: the first {!update} performs a full rebuild.
      @raise Invalid_argument on a graph too large for the route word,
      as {!compute}. *)

  type kind =
    | Full_rebuild
        (** cold start, or a configuration delta repair can't express *)
    | Steps of { links_applied : int; frontier : int; stop_early : int }
        (** [links_applied] failed-link-set differences applied;
            [frontier] distinct ASes whose stored route word (class,
            length, next hop) changed — rendered AS paths further
            downstream can change without their words being touched;
            [stop_early] links whose repair proved a no-op without
            touching any route *)

  val update :
    state -> scratch -> ?failed:Link_set.t -> Announcement.t list -> t * kind
  (** Bring the state to the requested configuration and return the
      outcome (aliasing the state's words). Restores run before fails,
      each in ascending link order, which the [Steps] counters depend on.
      @raise Invalid_argument as {!compute}. *)

  val version : state -> int
  (** A stamp that changes exactly when an {!update} changes anything an
      outcome reader could observe: any route word, a uniform length
      shift, or the announcement's communities (a pure prefix swap keeps
      the stamp). Two reads of the same prefix at the same version are
      guaranteed identical, so a caller that remembers the version it
      last derived per-session views at can skip the whole derivation
      when the stamp matches — the dynamics simulator's common case,
      where most events leave most origins' states untouched. Stamps are
      positive and globally unique across states, so a caller keying
      several states' stamps in one table may reserve [0] and the
      negatives for stamps of its own. *)
end

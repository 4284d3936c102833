(** Valley-free reachability closure: the static attack-surface substrate.

    For a source AS [s], {!compute} answers in one O(V+E) sweep which ASes
    lie at the end of {e some} policy-compliant (valley-free) walk from
    [s] — the classic Gao shape [up* peer? down*], where an "up" step goes
    to a provider, at most one step crosses a peering link, and every step
    after the peak descends to a customer. This is exactly the shape of

    - every AS path the Gao–Rexford engine ({!Qs_bgp.Propagate}) can ever
      select, and
    - the propagation footprint of an announcement: the set of ASes that
      can ever {e hear} a route originated at [s] (export rules admit a
      route along a walk iff its reverse is valley-free, and the reverse
      of [up* peer? down*] is again [up* peer? down*]).

    The sweep is a BFS over the product of the graph with the three-state
    export automaton (uphill phase / peer crossed / downhill phase), so
    membership comes with the minimal valley-free hop count, which is what
    radius-scoped announcements ([max_radius]) bound.

    Soundness laws (qcheck-enforced in [test/test_topology.ml]):

    - {b monotonicity}: removing a link from the graph never grows any
      closure or any exposure bound — which is why bounds computed on the
      intact graph stay valid for every churn state of the simulator;
    - {b renumbering invariance}: closures commute with any relabelling
      of the ASNs.

    A {!t} is a reusable single-threaded workspace (one per domain, as
    with {!Qs_bgp.Propagate.Workspace}); the {!closure} values it returns
    are owned copies and stay valid forever. *)

type t
(** Reusable scratch state bound to one indexed graph. *)

val create : As_graph.Indexed.t -> t

type closure
(** The reachability closure from one source AS: per target, whether some
    valley-free walk exists ({!reaches}) and whether a pure uphill
    (customer-to-provider) walk exists ({!uphill_only} — i.e. the source
    is in the target's customer cone). *)

val source : closure -> Asn.t

val compute :
  t ->
  ?export_to:Asn.Set.t ->
  ?max_radius:int ->
  Asn.t -> closure
(** [compute t s] is the closure from [s] over the whole graph.
    Failed links are not an input: by monotonicity, a closure over the
    intact graph bounds every failure state. [export_to] restricts the
    {e first} hop out of [s] to the given neighbors
    ({!Qs_bgp.Announcement.export_to} scoping);
    [max_radius] keeps only targets whose minimal valley-free walk from
    [s] has at most that many AS hops ({!Qs_bgp.Announcement.max_radius}
    scoping: an origin at depth 0 re-exports while depth < radius).
    @raise Not_found if [s] is not in the graph.
    @raise Invalid_argument if [max_radius] is negative. *)

val reaches : closure -> Asn.t -> bool
(** Some valley-free walk source → target exists. Unknown ASes are
    unreachable. [reaches c (source c)] always holds (the empty walk). *)

val uphill_only : closure -> Asn.t -> bool
(** A pure uphill walk source → target exists, i.e. the target reaches
    the source through a provider chain: [uphill_only c x] iff [source c]
    is in [x]'s customer cone. Implies {!reaches}. *)

val on_some_path : src:closure -> dst:closure -> Asn.t -> bool
(** [on_some_path ~src ~dst x]: does [x] lie on {e some} valley-free walk
    from [src]'s source to [dst]'s source? Both closures are plain forward
    closures (computed with no [export_to]/[max_radius] scoping) from the
    two endpoints; the decomposition is
    [(uphill_only src x && reaches dst x) ||
     (reaches src x && uphill_only dst x)]:
    either [x] sits in the uphill prefix and can still complete any
    valley-free continuation, or the remaining suffix is pure downhill
    (equivalently, by walk reversal, pure uphill from the destination).
    The bound admits non-simple walks, so it over-approximates the simple
    paths BGP loop detection permits — which is the direction a sound
    bound must err. *)

val exposure : src:closure -> dst:closure -> Asn.Set.t
(** All ASes satisfying {!on_some_path} — the static exposure bound of a
    (client, guard-origin) pair. Empty iff no valley-free walk connects
    the endpoints. Symmetric: [exposure ~src ~dst = exposure ~src:dst
    ~dst:src] (walk reversal preserves valley-freedom). *)

val reachable_count : closure -> int
(** [Asn.Set.cardinal] of the closure, without building the set. *)

val fold : (Asn.t -> 'a -> 'a) -> closure -> 'a -> 'a
(** Fold over every reachable AS, in increasing index order. *)

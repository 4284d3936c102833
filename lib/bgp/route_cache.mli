(** Bounded LRU cache of propagation outcomes.

    The dynamics simulator replays a small set of routing configurations
    over and over: every [Revert] and [Global_restore] returns the
    network to a previously-seen (announcements, failed-links) state, and
    prepend toggles alternate between two announcement shapes. Caching
    the {!Propagate.t} outcome per configuration turns those recomputes
    into O(1) lookups.

    Keys are {e exact} canonical serializations of the announcement list
    and the failed-link set — no lossy hashing — so a hit can never
    return routes for a different configuration. This is what lets the
    simulator guarantee a byte-identical update stream with the cache on
    and off. The graph and ROV configuration are {e not} part of the key:
    use one cache per (graph, rov) pair and never share it across
    scenarios.

    The cache owns the outcomes it stores: {!add} takes a
    {!Propagate.copy} of its argument, so the simulator's miss path can
    insert the very workspace- or delta-state-backed view it just
    computed. A full cache copies into the arrays of the entry it
    evicts instead of allocating new ones.

    {b Validity.} An outcome returned by {!find} stays valid until the
    next {!add}, which may evict it and overwrite its arrays. The
    simulator consumes each outcome before requesting the next. *)

type t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val key : anns:Announcement.t list -> failed:Link_set.t -> string
(** Canonical key for a routing configuration. Deterministic:
    [Link_set.elements] is sorted and every announcement field is
    serialized in a fixed order. *)

val find : t -> string -> Propagate.t option
(** Lookup; a hit refreshes the entry's recency. Counts toward
    [hits]/[misses]. The outcome is valid until the next {!add}. *)

val add : t -> string -> Propagate.t -> unit
(** Insert (or refresh) a copy of the outcome. A full cache first evicts
    its least-recently-used entry and recycles that entry's arrays for
    the copy. *)

val length : t -> int

val stats : t -> stats

val zero_stats : stats
(** All-zero stats, for the cache-disabled case. *)

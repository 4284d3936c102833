(** IPv4 address-space allocation for a topology: which prefixes each AS
    originates in BGP.

    Mirrors the structure the paper measures against: most ASes originate a
    couple of /20–/24 blocks; hosting ASes originate fewer, larger blocks
    (Hetzner's 78.46.0.0/15 being the extreme case), and some ASes announce
    more-specific prefixes nested inside their own aggregates, so that
    "most specific covering prefix" (the Tor-prefix mapping) is non-trivial. *)

type t

val allocate : rng:Rng.t -> As_graph.t -> t
(** Carves disjoint top-level blocks from 1.0.0.0 upward and assigns them to
    every AS in the graph; additionally nests more-specific announcements
    inside some aggregates. Deterministic given [rng]. *)

val origin : t -> Prefix.t -> Asn.t option
(** The AS that originates exactly this prefix, if it is announced. *)

val prefixes_of : t -> Asn.t -> Prefix.t list
(** All prefixes originated by an AS (possibly nested), most specific last. *)

val originates : t -> Asn.t -> bool
(** [prefixes_of t asn <> []], without building the sorted list. *)

val announced : t -> (Prefix.t * Asn.t) list
(** Every announced prefix with its origin, in {!Prefix.compare} order. *)

val count : t -> int
(** Number of announced prefixes. *)

val trie : t -> Asn.t Prefix_trie.t
(** Announced prefixes as a trie, for longest-prefix-match queries. *)

val covering_prefix : t -> Ipv4.t -> (Prefix.t * Asn.t) option
(** Most specific announced prefix containing the address — the paper's
    "Tor prefix" mapping when the address is a relay. *)

val address_in : rng:Rng.t -> t -> Asn.t -> Ipv4.t
(** A host address inside one of the AS's (least specific) blocks; used to
    place Tor relays, clients and servers inside ASes.
    @raise Not_found if the AS originates nothing. *)

(** Immutable binary (Patricia-style) trie keyed by IPv4 prefixes.

    Supports exact-match insertion/lookup and the two queries every piece of
    this system needs constantly:

    - {!longest_match}: the most specific stored prefix containing an
      address (how a router forwards, and how we map a Tor relay to its
      covering BGP prefix);
    - {!covered}: all stored prefixes subsumed by a query prefix (how a
      more-specific hijack finds its victims).

    The trie is persistent: updates return a new trie and share structure,
    which lets the BGP dynamics simulator snapshot routing state cheaply. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val add : Prefix.t -> 'a -> 'a t -> 'a t
(** [add p v t] binds [p] to [v], replacing any previous binding of [p]. *)

val remove : Prefix.t -> 'a t -> 'a t
(** [remove p t] removes the binding of [p] if present. *)

val find : Prefix.t -> 'a t -> 'a option
(** Exact-match lookup. *)

val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option
(** [longest_match addr t] returns the most specific stored prefix
    containing [addr], with its value. *)

val matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list
(** All stored prefixes containing [addr], most specific first. *)

val covered : Prefix.t -> 'a t -> (Prefix.t * 'a) list
(** [covered p t] lists stored prefixes subsumed by [p] (including [p]
    itself if stored), in increasing {!Prefix.compare} order. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** In increasing {!Prefix.compare} order of keys. *)

val cardinal : 'a t -> int
val to_list : 'a t -> (Prefix.t * 'a) list
val of_list : (Prefix.t * 'a) list -> 'a t
val keys : 'a t -> Prefix.t list

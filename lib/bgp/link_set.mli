(** Sets of inter-AS links, used to represent currently-failed links.

    A set is built over one {!As_graph.Indexed.t} and stores each link as
    one int made from its two ids, the smaller first: integer order is
    (smaller id, larger id) order, which is normalized ASN-pair order
    since ids ascend with ASNs. Links are undirected. A non-empty set
    records the size of its graph; every function taking a graph raises
    [Invalid_argument] on a set built over a graph of another size, or on
    an ASN not in the graph. *)

type t

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val add : As_graph.Indexed.t -> Asn.t -> Asn.t -> t -> t
val remove : As_graph.Indexed.t -> Asn.t -> Asn.t -> t -> t
val mem : As_graph.Indexed.t -> Asn.t -> Asn.t -> t -> bool
val of_list : As_graph.Indexed.t -> (Asn.t * Asn.t) list -> t

(** {2 By graph id, for the propagation engines}

    [mem_ids] allocates nothing. *)

val check : As_graph.Indexed.t -> t -> unit
val mem_ids : t -> int -> int -> bool
val add_ids : As_graph.Indexed.t -> int -> int -> t -> t
val remove_ids : As_graph.Indexed.t -> int -> int -> t -> t

val iter_diff : (int -> int -> unit) -> t -> t -> unit
(** [iter_diff f a b] calls [f lo hi] on each link of [a] not in [b], in
    ascending (lo, hi) id order. [a] and [b] share a graph. *)

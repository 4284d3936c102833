(** Relationship-agnostic graph algorithms over an AS topology: used for
    validation (connectivity), statistics, and as a reference implementation
    against which the policy-aware BGP engine is property-tested. *)

val connected : As_graph.t -> bool
(** True iff the undirected graph is connected (and non-empty). *)

val bfs_hops : As_graph.t -> Asn.t -> int Asn.Map.t
(** Shortest-path hop counts from a source, ignoring policy. *)

val valley_free : As_graph.t -> Asn.t list -> bool
(** [valley_free g path] checks the Gao export condition along an AS path
    (origin last): the path must consist of zero or more customer→provider
    ("uphill") steps, at most one peering step, then zero or more
    provider→customer ("downhill") steps. Vacuously true for paths of length
    <= 1; false if any adjacent pair is not linked. *)

val customer_cone_size : As_graph.t -> Asn.t -> int
(** Number of ASes in the customer cone (the AS itself included). *)

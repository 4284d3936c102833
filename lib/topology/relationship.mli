(** AS business relationships, following the Gao model: an inter-AS link is
    either customer-provider (the customer pays) or settlement-free peering.
    Relationships drive both BGP route preference and export policy
    (valley-free routing). *)

type t =
  | Customer  (** the neighbor is my customer: it pays me *)
  | Provider  (** the neighbor is my provider: I pay it *)
  | Peer      (** settlement-free peer *)

val invert : t -> t
(** The relationship as seen from the other side of the link:
    [invert Customer = Provider], [invert Peer = Peer]. *)

val to_string : t -> string
val equal : t -> t -> bool

val export_allowed : learned_from:t -> to_:t -> bool
(** Gao–Rexford export rule: a route learned from [learned_from] may be
    exported to a neighbor of class [to_] iff at least one of the two is a
    customer. Routes from peers/providers go only to customers; customer
    routes (and self-originated routes) go to everyone. *)

val preference_class : t -> int
(** Route-preference ranking of the neighbor class a route was learned from:
    customer (2) > peer (1) > provider (0). Higher is preferred. *)

(** AS-level Internet topology: ASes annotated with metadata, links annotated
    with business relationships.

    The graph is built once (mutably) and then treated as immutable by the
    routing code; link failures are modelled as a set of down links passed to
    the BGP propagation engine, not as graph mutation, so that concurrent
    experiments can share one topology. *)

type tier =
  | Tier1    (** default-free core; peers with all other Tier1s *)
  | Transit  (** regional/national transit provider *)
  | Stub     (** edge AS: enterprise, eyeball, or hosting *)

type info = {
  name : string;          (** human-readable AS name (e.g. "Hetzner Online AG") *)
  tier : tier;
  hosting_weight : float; (** propensity to host Tor relays; 0 for most ASes *)
}

val tier_to_string : tier -> string

type t

val create : unit -> t

val add_as : t -> Asn.t -> info -> unit
(** @raise Invalid_argument if the AS is already present. *)

val add_provider_customer : t -> provider:Asn.t -> customer:Asn.t -> unit
(** Adds a customer-provider link.
    @raise Invalid_argument if either AS is unknown, the ASes are equal, or
    the link already exists. *)

val add_peering : t -> Asn.t -> Asn.t -> unit
(** Adds a settlement-free peering link (same constraints). *)

val mem_as : t -> Asn.t -> bool
val info : t -> Asn.t -> info
(** @raise Not_found if unknown. *)

val relationship : t -> Asn.t -> Asn.t -> Relationship.t option
(** [relationship g a b] is what [b] is to [a] ([Some Customer] if [b] is
    [a]'s customer), or [None] if no link. *)

val neighbors : t -> Asn.t -> (Asn.t * Relationship.t) list
(** [neighbors g a] lists [(b, rel)] with [rel] = what [b] is to [a]. *)

val customers : t -> Asn.t -> Asn.t list
val providers : t -> Asn.t -> Asn.t list
val peers : t -> Asn.t -> Asn.t list

val ases : t -> Asn.t list
(** All ASes, in increasing ASN order. *)

val num_ases : t -> int
val num_links : t -> int
val degree : t -> Asn.t -> int

val links : t -> (Asn.t * Asn.t * Relationship.t) list
(** Each undirected link once, as [(a, b, what-b-is-to-a)] with [a < b]. *)

val core_links : t -> (Asn.t * Asn.t) array
(** The links whose two ends are both Tier1 or Transit, as [(a, b)] in
    {!links} order: the links core-link failures are drawn from. *)

val to_caida_string : t -> string
(** CAIDA as-rel "serial-1" format, extended with AS metadata comments:
    [<provider>|<customer>|-1] and [<peer>|<peer>|0] lines, preceded by
    [# as-info <asn> <tier> <hosting_weight> <name>] lines. *)

val of_caida_string : string -> t
(** Parses the format written by {!to_caida_string}. ASes appearing only in
    link lines get default stub metadata.
    @raise Invalid_argument on malformed input. *)

(** Dense integer-indexed view for tight inner loops (BGP propagation runs
    BFS over this thousands of times). *)
module Indexed : sig
  type graph = t
  type t

  val of_graph : graph -> t
  (** Ids are assigned in ascending ASN order, so comparing two ids
      compares their ASNs: a lowest-ASN tie-break is a lowest-id one. *)

  val n : t -> int
  val asn_of_id : t -> int -> Asn.t
  val id_of_asn : t -> Asn.t -> int
  (** @raise Not_found if the ASN is not in the graph. *)

  val neighbors : t -> int -> (int * Relationship.t) array
  (** Neighbor ids with what-the-neighbor-is-to-me. *)

  val tier : t -> int -> tier

  (** {2 Relationship rows}

      Every AS's neighbour ids in one flat array, grouped by what the
      neighbour is to the AS. For AS [i], with [s = row_start t], [p =
      peers_from t] and [c = customers_from t]: its providers are
      [rows.(k)] for [s.(i) <= k < p.(i)], its peers for
      [p.(i) <= k < c.(i)] and its customers for [c.(i) <= k < s.(i+1)],
      each group in {!neighbors} order. Built once by {!of_graph}; the
      arrays are shared, never copy-on-read — do not mutate them. This is
      the layout the propagation engine sweeps: one relationship's
      neighbours are a contiguous int range, with no tuple to unpack and
      no relationship to match per edge. *)

  val rows : t -> int array
  val row_start : t -> int array
  (** [n + 1] entries; [row_start.(n)] is the total adjacency count. *)

  val peers_from : t -> int array
  val customers_from : t -> int array
end

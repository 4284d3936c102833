(** Tor prefixes: the paper's mapping from relays to BGP.

    "For each guard and exit relay, we identified the most specific BGP
    prefix that contained it. We refer to those as Tor prefixes." This
    module computes that mapping against an {!Addressing.t} (the announced
    BGP table) and exposes the dataset statistics §4 reports. *)

type entry = {
  prefix : Prefix.t;
  origin : Asn.t;
  relays : Relay.t list;          (** guard/exit relays inside the prefix *)
}

type t

val compute : Addressing.t -> Consensus.t -> t
(** Maps every relay carrying the Guard or Exit flag to its most specific
    covering announced prefix. Relays whose address matches no announced
    prefix are skipped (counted in {!unmapped}). *)

val entries : t -> entry list
(** One entry per Tor prefix, in {!Prefix.compare} order. *)

val count : t -> int
(** Number of distinct Tor prefixes (paper: 1251). *)

val origin_ases : t -> Asn.Set.t
(** Distinct ASes originating Tor prefixes (paper: 650). *)

val unmapped : t -> int

val prefix_of_relay : t -> Relay.t -> (Prefix.t * Asn.t) option
(** The Tor prefix (and its origin AS) covering a given relay. *)

val relays_per_prefix : t -> int list
(** Sorted ascending; the paper reports median 1, 75th percentile 2,
    maximum 33. *)

val is_tor_prefix : t -> Prefix.t -> bool
(** A hash-table lookup ({!compute} builds the table once): F3L and F3R
    ask it once per measurement cell. Read-only, so pool tasks may share
    it. *)

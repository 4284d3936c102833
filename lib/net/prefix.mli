(** IPv4 CIDR prefixes (e.g. [78.46.0.0/15]).

    A prefix is stored in canonical form: host bits are always zero. Two
    prefixes are equal iff their canonical network address and length are
    equal, so prefixes are usable as keys in maps and hash tables. *)

type t
(** A CIDR prefix. *)

val make : Ipv4.t -> int -> t
(** [make addr len] builds the prefix [addr/len], zeroing host bits.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val network : t -> Ipv4.t
(** Canonical network address (host bits are zero). *)

val length : t -> int
(** Prefix length in [\[0, 32\]]. *)

val of_string : string -> t
(** [of_string "10.0.0.0/8"] parses CIDR notation.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Orders by network address, then by length (shorter first). *)

val equal : t -> t -> bool
val hash : t -> int

val mem : Ipv4.t -> t -> bool
(** [mem addr p] is true iff [addr] falls inside [p]. *)

val subsumes : t -> t -> bool
(** [subsumes p q] is true iff every address of [q] lies inside [p]
    (i.e. [p] is equal to or less specific than [q] and covers it). *)

val overlaps : t -> t -> bool
(** [overlaps p q] iff they share at least one address (one subsumes the
    other, for prefixes). *)

val split : t -> t * t
(** [split p] returns the two halves [p0/len+1] and [p1/len+1].
    @raise Invalid_argument if [length p = 32]. *)

val host : Ipv4.t -> t
(** [host addr] is the /32 prefix for [addr]. *)

val first : t -> Ipv4.t
(** Lowest address in the prefix (= {!network}). *)

val last : t -> Ipv4.t
(** Highest address in the prefix. *)

val size : t -> int
(** Number of addresses covered. *)

val nth : t -> int -> Ipv4.t
(** [nth p i] is the [i]-th address of [p].
    @raise Invalid_argument if [i < 0 || i >= size p]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t

(** Sets of inter-AS links, used to represent currently-failed links.

    Links are undirected and stored normalized, so [(a, b)] and [(b, a)]
    denote the same link. *)

type t

val empty : t
val is_empty : t -> bool
val add : Asn.t -> Asn.t -> t -> t
val remove : Asn.t -> Asn.t -> t -> t
val mem : Asn.t -> Asn.t -> t -> bool
val cardinal : t -> int
val elements : t -> (Asn.t * Asn.t) list
val of_list : (Asn.t * Asn.t) list -> t

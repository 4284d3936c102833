(** RPKI route-origin validation (ROV) — the "improvements in BGP security"
    the paper's conclusion calls for.

    A ROA (Route Origin Authorization) states that an AS may originate a
    prefix up to a maximum length. Validating ASes classify received routes
    by their {e claimed} origin:

    - {b Valid}: a covering ROA authorizes the origin and the prefix is no
      longer than its [max_length];
    - {b Invalid}: covering ROAs exist but none matches (wrong origin, or
      over-specific);
    - {b Not_found}: no covering ROA — unprotected space.

    Deploying ASes drop Invalids. Note what this does {e not} stop: an
    interception that forges the victim's ASN as the path origin presents a
    Valid origin, so ROV alone cannot block it (that takes path
    validation) — exactly the deployment gap the paper laments. *)

type roa = {
  roa_prefix : Prefix.t;
  max_length : int;
  authorized : Asn.t;
}

type validity = Valid | Invalid | Not_found

type t

val empty : t

val add_roa : t -> roa -> t
(** @raise Invalid_argument if [max_length] is below the ROA prefix length
    or above 32. *)

val of_addressing : Addressing.t -> t
(** Full deployment: one ROA per announced prefix, authorizing its true
    origin at exactly its length (the strictest, recommended practice). *)

val validate : t -> Prefix.t -> Asn.t -> validity
(** [validate t prefix claimed_origin] — RFC 6811 semantics. *)

val size : t -> int

(** IPv4 addresses, represented as unboxed [int] (the 32-bit address in the
    low bits). OCaml's native [int] is 63-bit on every platform we target, so
    this is both compact and allocation-free. *)

type t = private int
(** An IPv4 address. The private type prevents out-of-range values; build
    with {!of_octets}, {!of_string} or {!of_int_trunc}. *)

val of_int_trunc : int -> t
(** [of_int_trunc i] keeps the low 32 bits of [i]. Total. *)

val to_int : t -> int
(** [to_int a] is the address as a non-negative int in [\[0, 2^32)]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [\[0, 255\]]. *)

val of_string : string -> t
(** [of_string "10.0.0.1"] parses dotted-quad notation.
    @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option

val to_string : t -> string
(** Dotted-quad rendering. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool

val bit : t -> int -> bool
(** [bit a i] is the [i]-th most significant bit of [a], [i] in [\[0, 32)].
    @raise Invalid_argument if [i] is out of range. *)

val succ : t -> t
(** Next address, wrapping at 255.255.255.255. *)

val add : t -> int -> t
(** [add a n] offsets [a] by [n], truncated to 32 bits. *)

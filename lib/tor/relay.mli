(** A Tor relay as described by the network consensus: address, flags and
    the consensus bandwidth weight that drives path selection. *)

type flag = Guard | Exit | Fast | Stable

type t = {
  nickname : string;
  ip : Ipv4.t;
  asn : Asn.t;        (** the AS hosting the relay *)
  bandwidth : int;    (** consensus weight, KB/s *)
  flags : flag list;
}

val make :
  nickname:string -> ip:Ipv4.t -> asn:Asn.t -> bandwidth:int ->
  flags:flag list -> t
(** @raise Invalid_argument if [bandwidth < 0]. *)

val has_flag : t -> flag -> bool
val is_guard : t -> bool
val is_exit : t -> bool

val flag_to_string : flag -> string
val flag_of_string : string -> flag option

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
(** Relays are identified by their IP address. *)

(** Timestamped BGP UPDATE messages as recorded on a collector session —
    the unit of data every measurement in §4 of the paper consumes. *)

type session_id = {
  collector : string; (** e.g. "rrc00" *)
  peer : Asn.t;       (** the AS feeding this session *)
}

val session_compare : session_id -> session_id -> int
val session_equal : session_id -> session_id -> bool
val pp_session : Format.formatter -> session_id -> unit

type kind =
  | Announce of Route.t
  | Withdraw of Prefix.t

type t = {
  time : float;        (** seconds since the start of the measurement *)
  session : session_id;
  kind : kind;
}

val prefix : t -> Prefix.t
(** The prefix the update is about, for either kind. *)

val is_announce : t -> bool
val pp : Format.formatter -> t -> unit

module Session_map : Map.S with type key = session_id

module Session_table : Hashtbl.S with type key = session_id
(** Hash tables over sessions, for the analyses that group cells by
    session in one pass. *)

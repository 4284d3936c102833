(** Structured alerts and the detector registry of the serve subsystem.

    A detector consumes the released (time-ordered) update stream and
    raises alert records; the registry fans one update out to every
    registered detector in registration order, so the merged alert
    stream is deterministic. The first detector is the paper's §5 C1c
    control-plane monitor ({!Detection}), wrapped so each alarm becomes
    a self-contained record with the evidence window attached. *)

type t = {
  detector : string;      (** registry name, e.g. ["c1c"] *)
  time : float;           (** event time of the triggering update *)
  session : Update.session_id;
  prefix : Prefix.t;      (** the (sub-)prefix the alarm is about *)
  kind : string;          (** ["moas"] | ["subprefix"] | ["origin-adjacency"] *)
  summary : string;       (** rendered one-line alarm text (byte-stable) *)
  evidence : Update.t list;
      (** most-recent-first updates for the prefix at alert time *)
}

type detector = {
  name : string;
  observe : Update.t -> t list;
}

type registry

val registry : unit -> registry

val register : registry -> detector -> unit
(** Appends; observation order is registration order.
    @raise Invalid_argument on a duplicate name. *)

val observe : registry -> Update.t -> t list
(** Feed one released update to every detector, concatenating alerts in
    registration order. *)

val c1c :
  ?learning_period:float -> ?evidence:(Prefix.t -> Update.t list) -> unit ->
  detector
(** The §5 control-plane monitor as a detector: MOAS, sub-prefix and
    origin-adjacency alarms with {!Detection}'s learning period and
    per-(prefix, kind) cool-down. [evidence] supplies the recent-update
    window attached to each alert (default: none). *)

val of_alarm :
  detector:string -> ?evidence:Update.t list -> Detection.alarm -> t
(** Wrap a raw alarm — also used by the batch reference arm of replay
    verification, so streaming and batch alerts render identically by
    construction. *)

val equal : t -> t -> bool
(** Equality on (time, detector, kind, summary) — the alert-set
    comparison of replay verification; evidence is excluded because the
    batch arm has no evidence ring. *)

val pp : Format.formatter -> t -> unit

(** The feed driver: a bounded reorder buffer with watermarking and
    explicit backpressure.

    Live collector feeds are only ordered per session; the window wants a
    globally time-ordered stream. The buffer holds updates until the
    watermark — the highest time seen minus a configurable [slack] —
    passes them, then releases them in (time, arrival) order. Anything
    later than the slack allows is dropped {e and counted}; anything
    beyond the bounded queue is dropped {e and counted} — the backpressure
    contract is that nothing ever disappears silently, enforced by the
    accounting identity

    {[ ingested = released + dropped_late + dropped_overflow + queued ]}

    which holds at every point of the stream (a qcheck property in
    [test/test_serve.ml]). *)

type config = {
  capacity : int;  (** max updates buffered; pushes beyond are dropped *)
  slack : float;   (** out-of-order tolerance, seconds. Must cover the
                       feed's reordering (e.g. twice the session-reset
                       filter's buffering window in replay) or late drops
                       break replay equivalence — loudly. *)
}

val default_config : config
(** 65536 updates, 120 s slack (twice the default reset-filter window). *)

type push_result = [ `Accepted | `Dropped_late | `Dropped_overflow ]

type stats = {
  ingested : int;         (** every push, accepted or not *)
  released : int;
  dropped_late : int;
  dropped_overflow : int;
  queued : int;
  max_seen : float;       (** [neg_infinity] before the first accept *)
  watermark : float;      (** [max_seen - slack] *)
}

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument on a config QS307 rejects: a non-positive
    capacity, or a slack that is negative or not finite. *)

val config : t -> config
val watermark : t -> float
val queued : t -> int

val push : t -> Update.t -> push_result
(** Offer one update. [`Dropped_late] if its time is already behind the
    watermark, [`Dropped_overflow] if the queue is full — either way it
    is counted, never silently gone. *)

val ready : t -> Update.t list
(** Release everything at or before the watermark, in (time, arrival)
    order. Call after pushes; cheap when nothing is due. *)

val flush : t -> Update.t list
(** End of feed: release everything still queued, ordered. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

val decode_mrt :
  ?chunk:int -> collector:string -> exec:Pool.t -> string -> Update.t list
(** Decode a raw MRT byte stream into collector updates, parallelising
    the per-record BGP parsing over [exec] in slices of [chunk] (default
    512) records: record boundaries come from a cheap header scan, slices
    decode as pool tasks, and slice order is submission order — the
    result is byte-identical at any worker count.
    @raise Mrt.Malformed on truncated or invalid framing. *)

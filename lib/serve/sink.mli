(** Pluggable event subscribers.

    The serve loop renders events centrally (JSON lines, chunked over the
    pool) and hands each sink batches of [(event, rendered JSON)] pairs in
    stream order, so a sink is just a consumer — it never formats, blocks
    the hot path on per-event flushes, or sees events out of order. *)

type t

val make :
  name:string -> ?close:(unit -> unit) ->
  ((Event.t * string) array -> unit) -> t

val name : t -> string

val emit : t -> (Event.t * string) array -> unit
(** Deliver one batch (skipped when empty). Batches arrive in stream
    order; pairs within a batch are in stream order too. *)

val close : t -> unit
(** Flush/release whatever the sink holds. The serve loop closes every
    subscribed sink exactly once, at end of stream. *)

val null : t
(** Discards everything (benchmark harness). *)

val memory : unit -> t * (unit -> Event.t list)
(** In-memory sink for tests: the second component returns everything
    captured so far, oldest first. *)

val jsonl : ?name:string -> out_channel -> t
(** One JSON object per line. Flushes per batch and on {!close}; the
    channel itself is owned by the caller (stdout) or closed by the
    caller's wrapper (files). *)

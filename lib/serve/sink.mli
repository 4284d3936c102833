(** Pluggable event subscribers.

    A sink says by construction what it reads: {!make} and {!jsonl}
    read each event's rendered JSON line, {!memory} reads only the
    events, {!null} reads nothing. The serve loop renders a batch
    (chunked over the pool, in submission order) only when a subscribed
    sink reads lines, and keeps no batch at all when none reads events.
    Every sink gets its batches in stream order, so a sink is just a
    consumer — it never formats, blocks the hot path on per-event
    flushes, or sees events out of order. *)

type t

val make :
  name:string -> ?close:(unit -> unit) ->
  ((Event.t * string) array -> unit) -> t
(** A sink that reads [(event, rendered JSON)] pairs. *)

val name : t -> string

val reads : t -> bool
(** Whether the sink reads anything; [false] only for {!null}. *)

val emit : t -> Event.t array -> (Event.t * string) array Lazy.t -> unit
(** [emit t events lines] delivers one batch (skipped when empty):
    [events] to a sink that reads events, the forced [lines] — the same
    events with their rendered JSON — to one that reads lines. Batches
    arrive in stream order; events within a batch are in stream order
    too. *)

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
